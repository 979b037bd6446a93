"""The ledger probe behind docs/DECISIONS.md still runs against the engine."""

import ledger_probe


def test_ramp_prints_fits_and_linear_response(capsys):
    ledger_probe.main(
        ["ramp", "--rn", "2", "--kappa", "1e-7", "--tau-min", "20", "--tau-max", "200", "--points", "5"]
    )
    out = capsys.readouterr().out
    assert out.startswith("r_n = 2  kappa = 1e-07  tau_q = 20..200")
    for name in ("e_r", "dp"):
        assert f"{name}: power law b = " in out
    assert out.count("delta(kappa)/delta(kappa/10) = ") == 2
