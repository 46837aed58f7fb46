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
# rows from the one-normal-per-trial detection kernel (new measured cells of
# the two detection rows).
_PINS = {
    ("reference", "snr-vs-uavs"): (0, "9f76eeebeace45ed001194031bef75b97dc1682d9e8b88378dd6fddec6aefeef"),
    ("reference", "pd-vs-uavs"): (0, "896f5a504a23773d38c6657e1cb05cf5a4acc819f987403128856d7e11fffee4"),
    ("reference", "capacity-vs-radius"): (0, "5eae6122d17c744da7109d57fce3e5d994cfe36f1fb59ecd8d93e331ae8813de"),
    ("reference", "capacity-vs-frames"): (0, "c2fe0a4d3c4b4489491c538f28f2b2de293e7c63712cd2877502b33f117a7a95"),
    ("reference", "capacity-vs-power"): (0, "108c04ba4318fe332c9f656f581a99e2ad391a78ee8879a9783581f2fc21a8d7"),
    ("reference", "validate"): (0, "09e85a265e37ad4b0627231b9539300875d8168f8cd2f319608be2e75401a191"),
    ("k4_unnormalized", "snr-vs-uavs"): (0, "234f70c07c6ea986d6d0c3401e45cf8282dc90713d7743e48b695e46bd700bf8"),
    ("k4_unnormalized", "pd-vs-uavs"): (0, "26ba60e554a35027a329881f1c09ebbd325addc1999043cb98c87a9069e35c5f"),
    ("k4_unnormalized", "capacity-vs-radius"): (0, "ce304c0d905ffbd953d6803918358c31739cb7c758813773ad61d5e1d98850d0"),
    ("k4_unnormalized", "capacity-vs-frames"): (0, "ba185009e9f8117433982f93e6256f459955f410dd3c3f8617096041b1691a01"),
    ("k4_unnormalized", "capacity-vs-power"): (0, "ee73829b16193969aecc03a4978accf2861d0942ca1d677e9df04f4c78983061"),
    ("k4_unnormalized", "validate"): (0, "6813bda1c3e2249d7017a535d691bb67187540d97d75337169b48010b04fcfea"),
    ("fixed_pfa01", "snr-vs-uavs"): (0, "5201594d584e994ed065e6601ad6f587026bba4a1324abf3d932d32fd7d46cf0"),
    ("fixed_pfa01", "pd-vs-uavs"): (0, "d13cbc6e12fe95404426cee1b26d02cd1115cdcb6a96dc69f70e3194ef6dfe93"),
    # At 2 km the fixed surrogate leaves its window, so pd_capacity is the exact 2, not 1.
    ("fixed_pfa01", "capacity-vs-radius"): (0, "890c0d03faf98f3dcab4712857819ea724aa208bd7ac9de9fe347e3186014aa2"),
    ("fixed_pfa01", "capacity-vs-frames"): (0, "45337c709017d3cf45e606c084e40addbcdcba877e51b5d2a7e485ba79110c54"),
    ("fixed_pfa01", "capacity-vs-power"): (0, "cdf800c3c333889e8cfcb6020095b16f93987d51d87895e695c6ad47eca44c94"),
    ("fixed_pfa01", "validate"): (0, "051a9c83f73da21b0b40e8af638cd310cc4dc8f471427aa6b43161aaa29e7102"),
    ("expanded_n8", "snr-vs-uavs"): (0, "394c4194b33889ae52e5441fa1b89e206d978b374c0476039fcaac90f20a7133"),
    ("expanded_n8", "pd-vs-uavs"): (0, "4aeb447cbd623e12b51b656887b3897ef83b881ac911913dabc9300c72f1f767"),
    ("expanded_n8", "capacity-vs-radius"): (0, "f549ea1085667e27554920abc3bda85b0c4a1a31aab74216ceb5a045af833789"),
    ("expanded_n8", "capacity-vs-frames"): (0, "daef04e883ef7e60d7db162d893f8b9a13ad565a6fd6f44a0ea726e5401ec09c"),
    ("expanded_n8", "capacity-vs-power"): (0, "4402c677dc40cd58a998aeef84550540e427c5ec01034a2b9e8d6b3bf09246b4"),
    ("expanded_n8", "validate"): (0, "f5f4fc6e2dd1ca9402d871aa7e5d710eb0cfd4d767e8ab8f4ef2f14f72aef8e0"),
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
