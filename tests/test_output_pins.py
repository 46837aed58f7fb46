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
_PINS = {
    ("reference", "snr-vs-uavs"): (0, "e79c4e277cef9c560bbbb57d3f5f531d66176d2a049a0dde5d7aac9e70eae98b"),
    ("reference", "pd-vs-uavs"): (0, "61031cb95cf18d6fe58f2ab2c1ca0a965c7293b6b3846011f119468e33704c6f"),
    ("reference", "capacity-vs-radius"): (0, "438fbfb988582ce050ff69fd37c2e76a10163a24bc215c377f504e25e2f5dd0d"),
    ("reference", "capacity-vs-frames"): (0, "6804be5b76a8e9e4341637e8936755c98c8c3952a173a6cdf7aaf7507e40a610"),
    ("reference", "capacity-vs-power"): (0, "5ce1012602768147e0ed4ca3de8f0437636fadf83ccb6d2b59abb1d5105dc035"),
    ("reference", "validate"): (0, "38308c31e9d2315e2b63f5497fc290a341e7e028706f6996d107a222a9179a4f"),
    ("k4_unnormalized", "snr-vs-uavs"): (0, "f2f603047bea9237d873d2ae6f98095601f2b75da64e21792934f845e4d9dd85"),
    ("k4_unnormalized", "pd-vs-uavs"): (0, "808d22175a6c865aa217ddb56671d921eae6f672171860f3c52e9441254f7af8"),
    ("k4_unnormalized", "capacity-vs-radius"): (0, "83635982df29dbe11c7ae0ebd80fbe2d05ba2206c77fb726c7e94b92bb8b4c35"),
    ("k4_unnormalized", "capacity-vs-frames"): (0, "50b58d7148c494ec322d459e6e745360017b56fb6f0c8b50c95bec513c2cbc88"),
    ("k4_unnormalized", "capacity-vs-power"): (0, "82248c35aeec6dce37a93077a9474f000ca68e68852c9278e5d2a38d44908e6c"),
    ("k4_unnormalized", "validate"): (0, "c463beb6887ca55d420e5ef0fafa6f9b5a339917e28a441a088a0d17d74df2f8"),
    ("fixed_pfa01", "snr-vs-uavs"): (0, "0c0eba7ce9757d3bdb91a95635e4de7156b1a5dc79134f459293a3ee65cd3b97"),
    ("fixed_pfa01", "pd-vs-uavs"): (0, "27540ead7b360f89a564af84e553df4436eb0806a11b351915ddbb30f90aa192"),
    ("fixed_pfa01", "capacity-vs-radius"): (0, "9ee96703cd1019514adb07cacc75e4b2a5c9fa653e5784b2ac4dde1589d8b73b"),
    ("fixed_pfa01", "capacity-vs-frames"): (0, "73efc2e7c5329edb05daaaa2f51b92ea176628c1f9083bbf9c3f52017114c3ee"),
    ("fixed_pfa01", "capacity-vs-power"): (0, "655929fee8fe876dbfee688084e5660aaacf1fb879bf7cf85ab65866e36e1e4b"),
    ("fixed_pfa01", "validate"): (0, "683dcb4bfdb0dc3794ec670cd6d4552042e1d93a4e9ac79502623447b97b298a"),
    ("expanded_n8", "snr-vs-uavs"): (0, "e9ff358205bc4f84bf74779670a274178c515f168a467f3687b3f98a4f54fdd8"),
    ("expanded_n8", "pd-vs-uavs"): (0, "5600245d1a31453eeea01777120e9f7d64661439ca18eef9f610fe43ccbe47ec"),
    ("expanded_n8", "capacity-vs-radius"): (0, "e23aae1e4f54a76661201dcdbee05fa828dfb14c84457b3e46908645d3e2a06d"),
    ("expanded_n8", "capacity-vs-frames"): (0, "c1956e97d70fe55c2748b90bf83e86250fac8b22fa5de6815d8566024e8916a7"),
    ("expanded_n8", "capacity-vs-power"): (0, "98af2b2d35f37beee8fa99ee7b03be4f11e6a794bea4fcc4e87e32abf2e1f6a2"),
    ("expanded_n8", "validate"): (0, "3c1b25f18298ab5e2ec3ad67611b61b5fd8327e6e0384b88ade235c1dfc9f4a6"),
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
