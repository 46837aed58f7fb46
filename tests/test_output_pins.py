"""Whole-output pins: the sha256 of stdout and the exit code of every command.

A refactor that keeps every CSV byte-identical leaves these digests alone;
a deliberate output change updates the row it moves and says why.
"""

import hashlib

import pytest

from uavcap.cli import main

_SETS = {
    "reference": (),
    "k4_unnormalized": ("uavs_per_symbol=4", "snr_mode=unnormalized"),
    "fixed_pfa01": ("surrogate_mode=fixed", "pfa=0.01"),
    "expanded_n8": ("surrogate_mode=expanded", "cpi_symbols=8"),
}

# (override set, command) -> (exit code, sha256 of stdout) at --seed 7 --trials 20000.
# The snr-vs-uavs rows date from the log-uniform mean-SNR sampler, the validate
# rows from the energy kernel's one complex normal per trial (new cells of the
# integration_energy_n3/n8 and integration_snr_slope rows) and the mean-SNR
# rows' 3 SE tolerance without a 0.1 dB floor (new tolerance cells). Every
# header lost its `# confidence = 0.99` line when that key was retired.
_PINS = {
    ("reference", "snr-vs-uavs"): (0, "9816fc11fc478c0478bd9914fcf4958edf38b0e384989957126e397597fced59"),
    ("reference", "pd-vs-uavs"): (0, "611c8704cbc0bbd945cca3ccde04ca2100cbb88cfc3da942034d9e3f4acf62c5"),
    ("reference", "capacity-vs-radius"): (0, "3fd79443db4023ef034a0e132d124e1d4eba26d14cce3bcf02691cd98a94cd3c"),
    ("reference", "capacity-vs-frames"): (0, "2d4b098310475dc393dbc493372b3d2de02e7741d3726da28ab42f886f840cf7"),
    ("reference", "capacity-vs-power"): (0, "8d23b2eec574c40d517f2e0efe7b9a0fa4e2702b22af72308b6b520a306df236"),
    ("reference", "validate"): (0, "3464960b5972d361f8ae4f1a51e548bbcd8e8c6fab94261dd0a7deebdc4c6e56"),
    ("k4_unnormalized", "snr-vs-uavs"): (0, "b98a49a08125690b84d8d7bef1d2704f10b6c27267553693099f0a3a95710f3e"),
    ("k4_unnormalized", "pd-vs-uavs"): (0, "b9a54de3f58330cf103fd56d3de712ecf801ca95f0d611872795f828703373db"),
    ("k4_unnormalized", "capacity-vs-radius"): (0, "6d9e78da28fa0637a3bf143841003465efde2e11e9babdc0bceec52f9d8d6397"),
    ("k4_unnormalized", "capacity-vs-frames"): (0, "e256cd605160197eb6558c9759c9b21b080a469808d0a8e7bc6a01fc99fcfa49"),
    ("k4_unnormalized", "capacity-vs-power"): (0, "b1e5453df2e419856ea24efca491b19b3bdf15159c77274054c256f70de72455"),
    ("k4_unnormalized", "validate"): (0, "c89389aa67f6c44da44228c7c2559f3f63f015f6203288c1523bb3d031ad10fd"),
    ("fixed_pfa01", "snr-vs-uavs"): (0, "ae4a5d112bab725b64a3c1d6d303b54013375024becd1ec6508aa4a420ce7064"),
    ("fixed_pfa01", "pd-vs-uavs"): (0, "7d8368cd01656a787abaf26574fa83d26659b545bb0f9955ebb9300b3f1a96e7"),
    # At 2 km the fixed surrogate leaves its window, so pd_capacity is the exact 2, not 1.
    ("fixed_pfa01", "capacity-vs-radius"): (0, "a08e425ea0f8d2f4557403d0005ba86c14de90d9e36dd59a4a76d91daf71c87d"),
    ("fixed_pfa01", "capacity-vs-frames"): (0, "97545385092b7a587b002117d1ccc2b1d2156cda02984ad5f99ec36453e05383"),
    ("fixed_pfa01", "capacity-vs-power"): (0, "0f3ad5131e6b979272645f85318ec741aef70a9acc413f55fd4eebac804c1409"),
    ("fixed_pfa01", "validate"): (0, "0faffb4dc05ceb3469965937f73b7c4367c28edb2889cf7bca3ee2fb47638a2a"),
    ("expanded_n8", "snr-vs-uavs"): (0, "4e03cfe3f8ada10dca9a4e71c3f0688c92eeb57e9b08336bf912580ebd98dfee"),
    ("expanded_n8", "pd-vs-uavs"): (0, "11b4ca631f850677fc1446dce638e0a2dac9da3794f324f39a67f1e7eaa08c5d"),
    ("expanded_n8", "capacity-vs-radius"): (0, "4e930dea0e18aca95335745285eb25b8fcd10f25d028b32ad272f1298ebd3d0b"),
    ("expanded_n8", "capacity-vs-frames"): (0, "7c78abfaae49541a88558214936ed508cff9e0cbf5a7ceee9a9a76744c50b402"),
    ("expanded_n8", "capacity-vs-power"): (0, "288b3345de832f743b586c6908d81d87c78ab9f45dd79b3a67014d7289ed686d"),
    ("expanded_n8", "validate"): (0, "e3fb7b359860f9c4019e5fde2114134b7a3469d0a7c541b403d763462e146d4c"),
}


@pytest.mark.parametrize(
    "overrides, command", sorted(_PINS), ids=[f"{s}-{c}" for s, c in sorted(_PINS)]
)
def test_stdout_and_exit_code_match_their_pins(overrides, command, capsys) -> None:
    argv = [command, "--seed", "7", "--trials", "20000"]
    for assignment in _SETS[overrides]:
        argv += ["--set", assignment]
    code = main(argv)
    captured = capsys.readouterr()
    digest = hashlib.sha256(captured.out.encode("utf-8")).hexdigest()
    assert (code, digest) == _PINS[(overrides, command)]
    assert captured.err == ""
