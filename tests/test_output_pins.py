"""Whole-output pins: the sha256 of stdout and the exit code of every command.

A refactor that keeps every CSV byte-identical leaves these digests alone;
a deliberate output change updates the row it moves and says why.
"""

import hashlib

import pytest

from uavcap.cli import main

_SETS = {
    "reference": (),
    "unnormalized_f4": ("snr_mode=unnormalized", "frames=4"),
    "fixed_pfa01": ("surrogate_mode=fixed", "pfa=0.01"),
    "expanded_r1000": ("surrogate_mode=expanded", "radius_ratio=1000"),
}

# (override set, command) -> (exit code, sha256 of stdout) at --seed 7 --trials 20000.
# The snr-vs-uavs rows date from the log-uniform mean-SNR sampler, the validate
# rows from the energy kernel's one complex normal per trial (new cells of the
# integration_energy_n3/n8 and integration_snr_slope rows) and the mean-SNR
# rows' 3 SE tolerance without a 0.1 dB floor (new tolerance cells). Every
# header lost its `# confidence = 0.99` line when that key was retired, and
# its `# uavs_per_symbol = 1` and `# cpi_symbols = 3` lines when those were.
# The fixed_pfa01 validate row's fixed-variant gap reads 3 UAVs since the
# surrogate grid pins pfa to the reference (it read 5 at pfa = 0.01). Each
# validate row changed once more in its joint_pd_slow_then_sharp line alone,
# when that row became -ln joint PD's convexity from count 0 and the floor
# read at the capacity and the crossing (measured cell 0, a new detail).
_PINS = {
    ("reference", "snr-vs-uavs"): (0, "acc717ed51068371106a858a7a2230e33233dec85994ae76a023619dde9074ed"),
    ("reference", "pd-vs-uavs"): (0, "51399ffb24ed95d35c20a8dcf18006c2a9c66f61a1dc19da04d64d01ebaa0496"),
    ("reference", "capacity-vs-radius"): (0, "0df31e37ef5a546a1abcd65bbd4bdf6c1d8892096f8cafa0d1e9fdfc66f247b0"),
    ("reference", "capacity-vs-frames"): (0, "26eae9028ca77248a9380dd40958769fdfe547840e07fdb14ba714287069a651"),
    ("reference", "capacity-vs-power"): (0, "a21fd10d5390023c7c0a5afe7ae217a34c61b2ff9cf3cbecb1a0812f940934a5"),
    ("reference", "validate"): (0, "3f6596a9b5a48bea0a0921c1bfd70d3846b653dcdca26e6383f8b8c3caf6ec93"),
    ("unnormalized_f4", "snr-vs-uavs"): (0, "1fc104acbd38e8729468e72446a4e88e148acd73e483d597058900949e7e4760"),
    ("unnormalized_f4", "pd-vs-uavs"): (0, "c2a0356a29a5759715882bdc75b22f5264161945b822015cc29de3613f57901e"),
    ("unnormalized_f4", "capacity-vs-radius"): (0, "8400eae16e25b22d532a62d1126579f5aaed5ec87a9bf495646c3a6d7fb41e6a"),
    ("unnormalized_f4", "capacity-vs-frames"): (0, "e8d9c9a78c4fa52cf80a2db0f56b79668ba184d8532d7ead0834c42ccedf014e"),
    ("unnormalized_f4", "capacity-vs-power"): (0, "5f87ce3df75e974578dabf13625d63fc08603395f399b2a2e7b0f843fd3d1e1b"),
    ("unnormalized_f4", "validate"): (0, "ed38e6fe157a62c9984be81b65f7d8079ae67195ba8fecf2e086e8a48ef08b92"),
    ("fixed_pfa01", "snr-vs-uavs"): (0, "e4509ceeaf9dc6e7f3216488d499e2f19beefb80358b408b6559577727295221"),
    ("fixed_pfa01", "pd-vs-uavs"): (0, "4cd3fd439ef5da076a972d39f1ce26b0f3c7cade00a8e2fbf70b97b7382feacd"),
    # At 2 km the fixed surrogate leaves its window, so pd_capacity is the exact 2, not 1.
    ("fixed_pfa01", "capacity-vs-radius"): (0, "69104646f4951bcfc7ed263692fe962454d9027b2b7802d8dc32fe749ee8f7af"),
    ("fixed_pfa01", "capacity-vs-frames"): (0, "cd5fec1af44beb050115f9d487adb885874db0c33a3ce2aa19fdab3834d94523"),
    ("fixed_pfa01", "capacity-vs-power"): (0, "d625aef0af4b574edee64474e8659f2fb58b52a644107974f3c3eb26f76b4407"),
    ("fixed_pfa01", "validate"): (0, "4a107d4905c75788190deff37e2a9b65c8e68b1cbc7a355304d3a26611dcf7b0"),
    ("expanded_r1000", "snr-vs-uavs"): (0, "5a3d8ac400ceb85832f338d5bd0fdd8d9a8a41f3a123553c63acaedaa561b5d2"),
    ("expanded_r1000", "pd-vs-uavs"): (0, "68fda4e6bb8682324a66346dd23161b36c021dde2654c14ab5620ad1a330fe73"),
    ("expanded_r1000", "capacity-vs-radius"): (0, "c77cb6a9883ad333a7d7a4892e21636836c3fd130cd0186773f8363fff69a884"),
    ("expanded_r1000", "capacity-vs-frames"): (0, "0c5d6b3245d8a6fde89d1425afb92481eae0a36d156c02205e59c1a846bff1cf"),
    ("expanded_r1000", "capacity-vs-power"): (0, "015694aa79a9dcc9dc4bcf3e839ce2b6ad9f0d09eafddded4e9106cd8ff79698"),
    ("expanded_r1000", "validate"): (0, "7afc093e4841e22e1a77f5f33a69e34d7130d4f4d88eecd63e9e293c00657468"),
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
