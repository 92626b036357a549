import argparse
import contextlib
import hashlib
import io
import json
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from qcrystal import cli, identities, multiplicity, qseries, young
from qcrystal.multiplicity import multiplicity_table
from qcrystal.qseries import QSeries
from qcrystal.young import Partition

from helpers import print_json_rows_joined


def run_cli(*argv, env=None, timeout=None):
    return subprocess.run(
        [sys.executable, "-m", "qcrystal", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )


class TestDecompose:
    def test_json_round_trips_to_table(self):
        result = run_cli("decompose", "--n", "3", "--max-k", "5", "--format", "json")
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        table = multiplicity_table(3, 5)
        assert payload["n"] == 3 and payload["max_k"] == 5
        rebuilt = {
            (entry["i"], entry["k"]): (
                entry["b"],
                tuple(Partition(tuple(map(tuple, w))) for w in entry["witnesses"]),
            )
            for entry in payload["entries"]
        }
        assert rebuilt == {key: (e.count, e.witnesses) for key, e in table.items()}

    def test_minimal_json_payload(self):
        result = run_cli("decompose", "--n", "2", "--max-k", "0", "--format", "json")
        payload = json.loads(result.stdout)
        assert payload["entries"] == [{"i": 0, "k": 0, "b": 1, "witnesses": [[]]}]

    def test_json_puts_one_entry_per_line(self, capsys):
        assert cli.main(["decompose", "--n", "3", "--max-k", "4", "--format", "json"]) == 0
        text = capsys.readouterr().out
        lines = text.splitlines()
        assert lines[:4] == ["{", '  "n": 3,', '  "max_k": 4,', '  "entries": [']
        assert lines[-2:] == ["  ]", "}"]
        rows = [json.loads(line.strip().rstrip(",")) for line in lines[4:-2]]
        assert rows == json.loads(text)["entries"] and len(rows) == 9

    def test_output_is_deterministic(self):
        a = run_cli("decompose", "--n", "3", "--max-k", "4", "--format", "json")
        b = run_cli("decompose", "--n", "3", "--max-k", "4", "--format", "json")
        assert a.stdout == b.stdout

    def test_witness_cap_marker(self):
        result = run_cli(
            "decompose", "--n", "3", "--max-k", "6", "--format", "csv",
            "--witness-cap", "2",
        )
        assert "+5 more" in result.stdout
        payload = run_cli(
            "decompose", "--n", "3", "--max-k", "6", "--format", "json",
            "--witness-cap", "2",
        )
        entry = [
            e for e in json.loads(payload.stdout)["entries"] if (e["i"], e["k"]) == (0, 6)
        ][0]
        assert entry["witnesses_omitted"] == 5 and len(entry["witnesses"]) == 2

    def test_table_format_smoke(self):
        result = run_cli("decompose", "--n", "3", "--max-k", "3")
        assert result.returncode == 0
        assert "(4,1^2)" in result.stdout

    def test_usage_errors_exit_2(self):
        assert run_cli("decompose").returncode == 2
        assert run_cli("decompose", "--n", "1").returncode == 2
        assert run_cli("decompose", "--n", "3", "--max-k", "-1").returncode == 2
        assert run_cli("decompose", "--n", "3", "--format", "yaml").returncode == 2

    def test_negative_witness_cap_is_a_usage_error(self):
        result = run_cli("decompose", "--n", "3", "--max-k", "3", "--witness-cap", "-1")
        assert result.returncode == 2
        assert "--witness-cap" in result.stderr and "Traceback" not in result.stderr


class TestBseries:
    def test_both_methods_agree(self):
        result = run_cli(
            "bseries", "--n", "3", "--i", "1", "--order", "8", "--method", "both",
            "--format", "json",
        )
        payload = json.loads(result.stdout)
        (series,) = payload["series"]
        assert series["comb"] == [1, 2, 2, 4, 5, 8, 11, 16]
        assert series["comb"] == series["theta"]
        assert series["equal"] is True

    def test_json_puts_one_series_per_line(self, capsys):
        argv = ["bseries", "--n", "5", "--order", "6", "--method", "both", "--format", "json"]
        assert cli.main(argv) == 0
        text = capsys.readouterr().out
        lines = text.splitlines()
        assert lines[-2:] == ["  ]", "}"] and lines[5] == '  "series": ['
        rows = [json.loads(line.strip().rstrip(",")) for line in lines[6:-2]]
        assert rows == json.loads(text)["series"] and [r["i"] for r in rows] == [0, 1, 2]
        assert all(list(r) == ["i", "comb", "theta", "equal"] for r in rows)

    def test_order_one(self):
        result = run_cli("bseries", "--n", "2", "--i", "0", "--order", "1")
        assert result.returncode == 0
        assert result.stdout.strip() == "i=0 comb : 1"

    def test_theta_needs_conjecture_flag(self):
        result = run_cli("bseries", "--n", "9", "--order", "10", "--method", "theta")
        assert result.returncode == 3
        assert "conjectur" in result.stderr

    @pytest.mark.parametrize("method", ["theta", "both"])
    def test_unproven_modulus_exits_3_with_one_line(self, method):
        result = run_cli("bseries", "--n", "9", "--order", "10", "--method", method)
        assert result.returncode == 3
        assert result.stdout == ""
        assert result.stderr == "theta pipeline for n=9 is conjectural; rerun with --conjecture\n"

    def test_exit_3_comes_from_the_library_error(self, monkeypatch, capsys):
        # The CLI makes no modulus check of its own: whatever the theta
        # route raises as UnsupportedModulusError is exit 3.
        def unsupported(i, n, order, conjecture=False):
            raise multiplicity.UnsupportedModulusError(f"matrix construction for n={n} is conjectural")

        monkeypatch.setattr(multiplicity, "gf_theta", unsupported)
        assert cli.main(["bseries", "--n", "5", "--order", "4", "--method", "both"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "theta pipeline for n=5 is conjectural; rerun with --conjecture\n"

    def test_theta_refuses_the_modulus_before_the_comb_route_runs(self, monkeypatch, capsys):
        # At a large order the comb table alone could exhaust memory, so the
        # refusal must come first.
        def comb_must_not_run(i, n, order):
            raise AssertionError("comb route ran before the theta route refused the modulus")

        monkeypatch.setattr(multiplicity, "gf_comb", comb_must_not_run)
        assert cli.main(["bseries", "--n", "9", "--order", "3000", "--method", "both"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "theta pipeline for n=9 is conjectural; rerun with --conjecture\n"

    def test_component_out_of_range_is_checked_before_the_modulus(self, capsys):
        assert cli.main(["bseries", "--n", "9", "--i", "5", "--method", "theta"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == ["error: component index 5 out of range for n=9"]

    def test_conjecture_report(self):
        result = run_cli(
            "bseries", "--n", "9", "--order", "10", "--method", "both",
            "--conjecture", "--format", "json",
        )
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert len(payload["series"]) == 5
        for series in payload["series"]:
            assert "equal" in series or "theta_error" in series

    def test_proven_modulus_beyond_six_by_six(self):
        result = run_cli("bseries", "--n", "13", "--method", "both", "--order", "12", "--format", "json")
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert len(payload["series"]) == 7
        assert all(row["equal"] for row in payload["series"])

    def test_component_out_of_range(self):
        assert run_cli("bseries", "--n", "3", "--i", "2").returncode == 2

    @pytest.mark.parametrize("i", ["2", "-1"])
    def test_component_out_of_range_is_one_error_line(self, i, capsys):
        assert cli.main(["bseries", "--n", "3", "--i", i, "--method", "comb"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [f"error: component index {i} out of range for n=3"]

    @pytest.mark.parametrize(
        "method, fmt, digest",
        [
            ("theta", "json", "866ecad71b47a41c4efecaf470187478e92b555d582931e690dad2f3f6ca8e47"),
            ("both", "json", "ebbdf68361538b5e9850596df67416763ce5bcd58ef89bd3da32e74dbcde5d1e"),
            ("theta", "csv", "c8fe8c310eb7fb2c8f1a0d1d1f54c48e3a131932e4b5455f6ed5e5517cab5bd7"),
            ("both", "csv", "9a637745b74c508778b13b5228036a3a1c6f2d4a5367653811991c6311c652f7"),
            ("theta", "table", "7e1a5ed276882c9656c19444e12512166050a0c05708414e600c37bc2355ebff"),
            ("both", "table", "58727ae0919f642409bf1262a28aa02bc9b610340f60fe20cf603d24dcaed368"),
        ],
    )
    def test_failed_solve_is_reported_per_component(self, method, fmt, digest, monkeypatch, capsys):
        message = "rescaled determinant for n=5 is not a unit; cannot divide exactly"

        def failing(i, n, order, conjecture=False):
            raise multiplicity.NonUnitDeterminantError(message)

        monkeypatch.setattr(multiplicity, "gf_theta", failing)
        argv = ["bseries", "--n", "5", "--order", "4", "--method", method, "--format", fmt]
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        if fmt == "json":
            rows = json.loads(out)["series"]
            assert all(r["theta_error"] == message and "equal" not in r for r in rows)
        elif fmt == "csv":
            assert {line.split(",")[-1] for line in out.splitlines()[1:]} == {"error"}
        else:
            assert f"i=1 theta: unavailable ({message})" in out.splitlines()

    def test_method_choices_are_the_table(self):
        (subparsers,) = [
            a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        ]
        (method,) = [a for a in subparsers.choices["bseries"]._actions if a.dest == "method"]
        assert tuple(method.choices) == tuple(cli.METHODS) == ("comb", "theta", "both")

    def test_routes_are_looked_up_at_call_time(self, monkeypatch, capsys):
        calls = {"gf_comb": [], "gf_theta": []}
        for name, calls_of in calls.items():
            real = getattr(multiplicity, name)

            def counting(i, *args, real=real, calls_of=calls_of, **kwargs):
                calls_of.append(i)
                return real(i, *args, **kwargs)

            monkeypatch.setattr(multiplicity, name, counting)
        argv = ["bseries", "--n", "5", "--order", "6", "--method", "both", "--format", "json"]
        assert cli.main(argv) == 0
        assert all(row["equal"] for row in json.loads(capsys.readouterr().out)["series"])
        assert calls == {"gf_comb": [0, 1, 2], "gf_theta": [0, 1, 2]}

    def test_recursion_too_deep_exits_2(self, monkeypatch, capsys):
        def too_deep(args, i, order):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setitem(cli.ROUTES, "theta", too_deep)
        code = cli.main(["bseries", "--n", "3", "--method", "theta", "--order", "5"])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == ["error: request too large to compute (maximum recursion depth exceeded)"]

    def test_theta_order_too_large_to_index_exits_2(self):
        # The theta window is sized before any term is summed, so an order
        # this large fails at allocation instead of looping over 10^10 terms.
        result = run_cli("bseries", "--n", "3", "--method", "theta", "--order", str(10**20), timeout=30)
        assert result.returncode == 2
        assert result.stdout == ""
        assert len(result.stderr.splitlines()) == 1 and result.stderr.startswith("error: ")


# Every ranged integer flag, with its least accepted value.
FLAG_RANGES = [
    ("decompose", "--n", 2),
    ("decompose", "--max-k", 0),
    ("decompose", "--witness-cap", 0),
    ("bseries", "--n", 2),
    ("bseries", "--order", 1),
    ("verify", "--order", 1),
    ("verify", "--master-order", 1),
    ("verify", "--max-k", 0),
    ("verify", "--n", 2),
]


class TestFlagRanges:
    @pytest.mark.parametrize("command, flag, low", FLAG_RANGES)
    @pytest.mark.parametrize(
        "value, message",
        [("{below}", "must be at least {low}, got {below}"), ("1.5", "must be an integer, got '1.5'")],
    )
    def test_bad_value_is_a_usage_error(self, command, flag, low, value, message, capsys):
        bounds = {"low": low, "below": low - 1}
        with pytest.raises(SystemExit) as exit_info:
            cli.main([command, flag, value.format(**bounds)])
        assert exit_info.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines()[-1] == f"qcrystal {command}: error: argument {flag}: " + message.format(**bounds)

    @pytest.mark.parametrize("command, flag, low", FLAG_RANGES)
    def test_least_value_parses(self, command, flag, low):
        required = ["--n", "3"] if command != "verify" and flag != "--n" else []
        args = cli.build_parser().parse_args([command, *required, flag, str(low)])
        assert getattr(args, flag[2:].replace("-", "_")) == low

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["bseries", "--n", "3", "--order", "0"], "argument --order: must be at least 1, got 0"),
            (["verify", "--master-order", "0"], "argument --master-order: must be at least 1, got 0"),
            (["bseries", "--n", "x"], "argument --n: must be an integer, got 'x'"),
        ],
    )
    def test_bad_value_exits_2_naming_its_flag(self, argv, message):
        result = run_cli(*argv)
        assert result.returncode == 2
        assert result.stdout == ""
        assert message in result.stderr and "Traceback" not in result.stderr


class TestVerify:
    @pytest.mark.parametrize("master_order", [198, 199, 200])
    def test_catalog_builds_each_chain_table_once(self, master_order, monkeypatch, capsys):
        # theorem5.1 at --max-k 66 asks for 198 boxes of n = 3, the master
        # check for up to 199: the first table is rounded up to serve both
        builds = []
        real = multiplicity._count_table
        monkeypatch.setattr(multiplicity, "_count_table", lambda n, boxes: builds.append(n) or real(n, boxes))
        monkeypatch.setattr(multiplicity, "_tables", {})
        argv = ["verify", "--identity", "all", "--order", "1200", "--master-order", str(master_order), "--max-k", "66"]
        assert cli.main(argv) == 0
        assert json.loads(capsys.readouterr().out)["all_hold"] is True
        assert 3 in builds and len(builds) == len(set(builds))

    def test_single_lemma_at_order_one(self):
        result = run_cli("verify", "--identity", "lemma5.2", "--order", "1")
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert payload["all_hold"] is True
        assert payload["checks"][0]["order"] == 1

    def test_master_with_explicit_modulus(self):
        result = run_cli("verify", "--identity", "master", "--n", "4", "--order", "60")
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert payload["checks"][0]["name"] == "master[n=4]"
        assert payload["checks"][0]["order"] == 60

    def test_env_var_supplies_default_order(self):
        import os

        env = dict(os.environ, QSERIES_ORDER="17")
        result = run_cli("verify", "--identity", "lemma5.2", env=env)
        payload = json.loads(result.stdout)
        assert payload["checks"][0]["order"] == 17

    def test_env_order_below_one_is_a_usage_error(self):
        import os

        env = dict(os.environ, QSERIES_ORDER="0")
        result = run_cli("verify", "--identity", "lemma5.1", env=env)
        assert result.returncode == 2
        assert "QSERIES_ORDER" in result.stderr and "Traceback" not in result.stderr

    @pytest.mark.parametrize(
        "env, message",
        [
            ("abc", "QSERIES_ORDER must be an integer, got 'abc'"),
            ("0", "QSERIES_ORDER must be at least 1, got 0"),
        ],
        ids=["not-an-integer", "below-one"],
    )
    @pytest.mark.parametrize(
        "argv", [["verify", "--identity", "lemma5.1"], ["bseries", "--n", "3"]], ids=["verify", "bseries"]
    )
    def test_bad_env_order_is_one_error_line(self, env, message, argv, monkeypatch, capsys):
        monkeypatch.setenv("QSERIES_ORDER", env)
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [f"error: {message}"]

    def test_uncaught_value_error_exits_2(self, monkeypatch, capsys):
        def broken_check(order):
            raise ValueError("order too large for this check")

        monkeypatch.setattr(identities, "check_lemma_5_2", broken_check)
        code = cli.main(["verify", "--identity", "lemma5.2", "--order", "5"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.strip().splitlines() == ["error: order too large for this check"]

    def test_order_too_large_to_index_exits_2(self):
        result = run_cli("verify", "--identity", "lemma5.3", "--order", str(10**20))
        assert result.returncode == 2
        assert result.stderr.startswith("error: ") and "Traceback" not in result.stderr

    def test_out_of_memory_exits_2(self, monkeypatch, capsys):
        def exhausted(order):
            raise MemoryError

        monkeypatch.setattr(qseries, "_euler_product", exhausted)
        monkeypatch.setattr(qseries, "_phi_base", QSeries.one(1))
        code = cli.main(["verify", "--identity", "lemma5.3", "--order", "5"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.strip().splitlines() == ["error: not enough memory for this request"]

    def test_failure_exits_1(self, monkeypatch, capsys):
        def fake_check(order):
            return identities.IdentityReport("lemma5.2", order, (1, 0, 1))

        monkeypatch.setattr(identities, "check_lemma_5_2", fake_check)
        code = cli.main(["verify", "--identity", "lemma5.2", "--order", "5"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["all_hold"] is False
        assert payload["checks"][0]["first_discrepancy"] == {
            "exponent": 1,
            "lhs": 0,
            "rhs": 1,
        }

    def test_theorem_check(self):
        result = run_cli("verify", "--identity", "theorem5.1", "--max-k", "10")
        assert result.returncode == 0

    def test_triple_product_check(self):
        result = run_cli("verify", "--identity", "triple-product", "--order", "40")
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert payload["checks"][0]["name"].startswith("triple-product")

    def test_all_runs_every_check(self):
        result = run_cli("verify", "--identity", "all", "--order", "40")
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        names = [c["name"] for c in payload["checks"]]
        assert names == [
            "lemma5.1",
            "lemma5.2",
            "lemma5.3",
            "lemma5.4",
            "theorem5.1",
            "master[n=2]",
            "master[n=3]",
            "master[n=4]",
            "master[n=5]",
            "master[n=6]",
            "master[n=7]",
            "triple-product",
        ]
        assert payload["all_hold"] is True

    def test_unknown_identity_rejected(self):
        assert run_cli("verify", "--identity", "lemma9.9").returncode == 2


# Order each check runs at, for each source of an order: the id selected
# alone, then under --identity all.  theorem5.1 reads only --max-k (30).
ORDER_SOURCES = {
    "--order": (["--order", "40"], {}),
    "--master-order": (["--master-order", "50"], {}),
    "QSERIES_ORDER": ([], {"QSERIES_ORDER": "60"}),
    "nothing": ([], {}),
}
EXPECTED_ORDERS = {
    #                  --order  --master-order  QSERIES_ORDER  nothing
    "lemma5.1": {"alone": (40, 300, 60, 300), "all": (40, 300, 60, 300)},
    "lemma5.2": {"alone": (40, 300, 60, 300), "all": (40, 300, 60, 300)},
    "lemma5.3": {"alone": (40, 300, 60, 300), "all": (40, 300, 60, 300)},
    "lemma5.4": {"alone": (40, 300, 60, 300), "all": (40, 300, 60, 300)},
    "theorem5.1": {"alone": (30, 30, 30, 30), "all": (30, 30, 30, 30)},
    "master": {"alone": (40, 50, 60, 120), "all": (120, 50, 120, 120)},
    "triple-product": {"alone": (40, 200, 60, 200), "all": (200, 200, 200, 200)},
}


@pytest.fixture
def echoing_checks(monkeypatch):
    """Replace every check with a fake that reports the order it was given."""

    def echo(name):
        return lambda order: identities.IdentityReport(name, order, None)

    for attr, name in (
        ("check_lemma_5_1", "lemma5.1"),
        ("check_lemma_5_2", "lemma5.2"),
        ("check_lemma_5_3", "lemma5.3"),
        ("check_lemma_5_4", "lemma5.4"),
        ("check_theorem_5_1", "theorem5.1"),
        ("check_triple_product", "triple-product"),
    ):
        monkeypatch.setattr(identities, attr, echo(name))
    monkeypatch.setattr(
        identities,
        "check_master",
        lambda n, order: identities.IdentityReport(f"master[n={n}]", order, None),
    )


class TestVerifyOrderRule:
    @pytest.mark.parametrize("source", list(ORDER_SOURCES))
    @pytest.mark.parametrize("mode", ["alone", "all"])
    @pytest.mark.parametrize("identity", list(EXPECTED_ORDERS))
    def test_reported_order(self, identity, mode, source, echoing_checks, monkeypatch, capsys):
        flags, env = ORDER_SOURCES[source]
        monkeypatch.delenv("QSERIES_ORDER", raising=False)
        for key, value in env.items():
            monkeypatch.setenv(key, value)
        selected = identity if mode == "alone" else "all"
        assert cli.main(["verify", "--identity", selected, *flags]) == 0
        checks = json.loads(capsys.readouterr().out)["checks"]
        orders = {c["order"] for c in checks if c["name"].split("[")[0] == identity}
        expected = EXPECTED_ORDERS[identity][mode][list(ORDER_SOURCES).index(source)]
        assert orders == {expected}

    def test_identity_choices_are_the_table_plus_all(self):
        (subparsers,) = [
            a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        ]
        (identity,) = [a for a in subparsers.choices["verify"]._actions if a.dest == "identity"]
        assert list(identity.choices) == [*cli.IDENTITIES, "all"]
        assert list(cli.IDENTITIES) == list(EXPECTED_ORDERS)

    @pytest.mark.parametrize(
        "env, argv, order",
        [
            ("abc", ["--identity", "theorem5.1"], 30),
            ("0", ["--identity", "master", "--master-order", "10", "--n", "2"], 10),
        ],
    )
    def test_env_order_is_read_only_when_used(self, env, argv, order, monkeypatch, capsys):
        monkeypatch.setenv("QSERIES_ORDER", env)
        assert cli.main(["verify", *argv]) == 0
        (check,) = json.loads(capsys.readouterr().out)["checks"]
        assert check["order"] == order and check["holds"] is True


class TestCrossPipeline:
    def test_decompose_counts_match_theta_series(self):
        from qcrystal.multiplicity import gf_theta

        result = run_cli("decompose", "--n", "5", "--max-k", "8", "--format", "json")
        payload = json.loads(result.stdout)
        for i in range(3):
            series = gf_theta(i, 5, 9 - i)
            for entry in payload["entries"]:
                if entry["i"] == i:
                    assert entry["b"] == series.coeff(entry["k"] - i), entry


class TestSwitchingModulus:
    """One process switching modulus and back prints what it printed first."""

    def _outputs(self, runs, capsys):
        outs = []
        for argv in runs:
            assert cli.main(argv) == 0
            outs.append(capsys.readouterr().out)
        return outs

    def test_decompose_rebuilds_the_shape_table(self, monkeypatch, capsys):
        monkeypatch.setattr(young, "_shape_cache", (0, ()))
        first, _, third = self._outputs(
            [["decompose", "--n", str(n), "--max-k", str(k)] for n, k in ((2, 12), (3, 8), (2, 12))], capsys
        )
        assert third == first
        assert young._shape_cache[0] == 2

    def test_bseries_reuses_the_chain_table(self, monkeypatch, capsys):
        builds = []
        real = multiplicity._count_table
        monkeypatch.setattr(multiplicity, "_count_table", lambda n, boxes: builds.append(n) or real(n, boxes))
        monkeypatch.setattr(multiplicity, "_tables", {})
        first, _, third = self._outputs(
            [["bseries", "--n", str(n), "--method", "both", "--order", "40"] for n in (5, 3, 5)], capsys
        )
        assert third == first
        assert builds == [5, 3] and list(multiplicity._tables) == [3, 5]

    def test_one_parser_serves_every_call(self, capsys):
        cli.build_parser.cache_clear()
        first, second = self._outputs(
            [["bseries", "--n", "3", "--order", "5", "--format", "csv"], ["decompose", "--n", "2", "--max-k", "3"]],
            capsys,
        )
        assert first.startswith("i,m,comb\n") and second.startswith("multiplicities for n=2")
        info = cli.build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 1)


# sha256 of `decompose --format json` at each (n, max-k): uncapped, then with
# witness caps 0, 1 and 2.  The capped runs write `witnesses_omitted`; n = 4
# and 8 have components that share a box count.
DECOMPOSE_JSON_DIGESTS = {
    (2, 40): (
        "4554464ce3ea58c68419896ee126ab8c2cbb9341e0a302bc76d407932e1e5608",
        "dfd503d4f42d68120a64e45d849adb58c9648deecaa6921b5bcd03ffff946976",
        "75e75132de9f3b198bac4bcee39bb825801cbb560bb24e1d9e354c2686d8d689",
        "02d5a75560dd559629c99c63773dfa14400992f06ad9d5e63ca79a3e69fdd8f9",
    ),
    (3, 25): (
        "a21a6d5b1c252d02032e3366d0a80b697076c3190d04c6e3993b416137518bb2",
        "a0f8766f6c28f82f6fe0363e409a527aa148a62ac15b8f9f4c40ed4131aa32e6",
        "76b39c5b14d13ba062506a2f770574f4afacfe981d405e5f0add14cfd396ad4d",
        "4b4949d4c01ac098bd0bae0671ebbbd26ffba5447fa963dbdfcf5cb38c7f8153",
    ),
    (5, 12): (
        "28ca435c1762d14348cffb6dd633165025cfbf47e6990abe4c05e190891a04c0",
        "6ed881f296b10d1ae5da755f041e096418dcc04cd111897c82149172575496ba",
        "ec440bb8afe77900d469dc401fc591b52aabfd9abfad1e9900d81b0f5e9743e6",
        "bb956a37feec331643f897ae9c8f27c6e4748cc201102cd181c4dfd1cf8bc7d5",
    ),
    (4, 14): (
        "02d64033b1dde9a6425140e00b5b83238e4ea2ddecef91611ec2b0fee7313966",
        "c5bc71afd2c9abf2defcae8a61f9a38f52d74842598e98cd6f08ea56d3b03df9",
        "26715a2d66ef50431a1444d4df3bcf0bebe098b104eb7799eec0068cf4ab002a",
        "5da840eef6603d3ac8fec6c5110df2bebc5b389073383e53c246f82b422aa872",
    ),
    (8, 9): (
        "a01284cde901d55eaf5c95d32336e201bdb2f639919e9c1f9fbdf79da5d50193",
        "de658dfba52795f1bd4bf30da21b374e199d25aff6c206e1a8e13d41648dcfbc",
        "95f2e48ea5f6dbb2df6f20bda5554cdd168b5372626dd7cade16ac9c3bef04d8",
        "2372589a954f5b6e2f83ca77dead3d78a4185066e7cf3301b06378a6f632da99",
    ),
}


# The same runs as CSV and as a table, whose capped cells end in `+N more`.
DECOMPOSE_CSV_DIGESTS = {
    (2, 40): (
        "161fbd9905c967a89016e756c6652ba24c753d07050f3d618ef357c73f28b254",
        "80a42ca91f74e0a7fc21d4eaadc8dd7dd24001b028fbdaa4f802f7521b42c900",
        "58ef9d12f5d2fc73fe91932c8ea80409d9b86d169f10449d34196d100ec59f1b",
        "4a002ab9ea5574492f315cfa22c2e6822ecd85717ea233644b0cd517f066c539",
    ),
    (3, 25): (
        "7ea35f79242edeefd5f7dd179e23b8b8df22324a02c9461a299b667268511187",
        "4f95c490a573dc01f330306e0f33ff5db34bc4ea2bd26ffd451f3bfb6d0fb8e3",
        "0b6082b9e053f46c56bfd4124c9bd92802823e0381de0fc86da9b412699dca58",
        "35248d5e30ed98791be4fbc6bf09bc1b662d44ac516e242e7de0111ffb6a4e51",
    ),
    (5, 12): (
        "658d09e126ed6c3f8cca038bf1ebd131bbaed81f2c3ae86b93e1b70817266a8a",
        "b81b319b900cd035c34f0ae32c4c1b92c665b4ef44e0eab0656e92627952a1b1",
        "edaf10ad212c4c955d3fc1df0fd532f810bb6a6079bb301b14e9db0b5c1211c3",
        "5008365229e48376489b04f3ac89834a3cbd6f964d443f6148a7aab13b7d576a",
    ),
    (4, 14): (
        "06afc66cd056d1de616c721eb16a3436535096367c12bb08283060f5d290f31a",
        "e3b03bfafd8968b588437cb5a8a37d29550bd418183e3f74b2e3c58194c70424",
        "891ffd9726d0f9e1d58abfb6ce8d6bfa5d1e6dcd5e28dc48081136e2bfd345dd",
        "7dfaa9521b8598ffa7264e21467686080926d55d69a36edfe55325f2f6caf378",
    ),
    (8, 9): (
        "427df20df98c923cfda26d48e365aa07140a33658379d3ec6301bdefb24b37a3",
        "1e1fa394404c05489ff78ab382f8d1d62908872bf6cc235017cb788d4ff37ace",
        "094e74bae1990b595f6d7ea472cb0f956ff3313b888955018794ebf064de20c4",
        "82cadd0e688606106d1730919a995d49fe50624f19fae9806371e8621708a384",
    ),
}
DECOMPOSE_TABLE_DIGESTS = {
    (2, 40): (
        "8aec7e4339d73ca7fa3f9af3642069ee7d3459d56e0b19ac8fef0e381d725010",
        "32a6eef8e8f033cf6ad17165f293357a93ac1dca38be49da767889c59c1e3dc6",
        "55fc0963e3014438f23cfbacd3bf9414d769a4b517a30563036ef31d8982c35a",
        "d533dcca192be4d5b66ca12aba96cfd5057e8e9b0a3f42ea0f1e6cfb39c755e0",
    ),
    (3, 25): (
        "3d78c4c1f65e28797f77f0d18372357ce9f9ee11a8872b9f1e39e47a8fd04a0a",
        "568a325c0aeb9555bf3dc9bca098360c3334745f699ce91caee5cef765c42430",
        "4fbeda5a6a4f3083ff6357e7e1334ce75cdfc9aa2bcfb526b24c6e588fff4442",
        "b0fb9bfbf38a02103935467d15c70547e555d638ebcb4eb4979b4566ceaab756",
    ),
    (5, 12): (
        "bb500d13043a2e02109f402fe9965b33aff7258b0492dbc8176bca9d22c6965c",
        "0a2a53901a2b76ddf0677ade5d35c2305c3991c2760119d19d4e273ecf96618b",
        "f8e3a2e96ac47aa8813d716ef60fb84a38b3f218416231398bba03f7e176b4d7",
        "316fa8cbdbf4f6fcec5719ac356d58b4595299e33e26c41318e36edc2062ac20",
    ),
    (4, 14): (
        "abe14e88b4c90f0fb74d166bcc9b8090de811a4dc3648bb730e27b5423de78c5",
        "a280cd7aab8a5f7e55febe61e5762b2b8d3566408feef763905b58c4b5ff12bf",
        "a08bbdaa5d9257cb0c944c1d96b57840dd1591c9803df8d5e27e90b8cf3ba27b",
        "f412ef2529d51bddfdc426e3d21879c1335c09bb6672158dc37d43b1a3bb8028",
    ),
    (8, 9): (
        "2e78186ab130918dffa1b7db51b922ab7f05341a26ca2afc0b92b7542417c01c",
        "3c0b44faec6da1334a8ef662141fbc6d2a1baabed883c5730c766de54378c46c",
        "822a099bb61a49c09c10ad1878ae9e65d6696a720e38d0760666de1e250ed20b",
        "349cbfa4472016b0e36254b9126d0d588360e3f645501ce5fc4fff81befca509",
    ),
}


def decompose_cases():
    for fmt, digests_by_size in (
        ("json", DECOMPOSE_JSON_DIGESTS),
        ("csv", DECOMPOSE_CSV_DIGESTS),
        ("table", DECOMPOSE_TABLE_DIGESTS),
    ):
        for (n, max_k), digests in digests_by_size.items():
            for cap, digest in zip((None, 0, 1, 2), digests):
                capped = "" if cap is None else f" --witness-cap {cap}"
                yield f"decompose --n {n} --max-k {max_k}{capped} --format {fmt}", digest


class TestJsonBytes:
    """SHA-256 of the whole stdout.  Speed-ups to enumeration and encoding
    must keep the output byte for byte, so any change to shape order,
    witnesses, series or formatting fails here."""

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                "decompose --n 3 --max-k 12 --format json",
                "d4b666cf24549ff8b7f56e147dbc1081118a9148ebefe7ab1ecf5b122e78b694",
            ),
            (
                "decompose --n 2 --max-k 20 --format json",
                "9d58f80978f5bdee4d25d85bc6dd4f7ebfd86c12d32f31d9438b6a77ec000c02",
            ),
            *decompose_cases(),
            (
                "bseries --n 5 --method both --order 40 --format json",
                "9606ec60e2d7c5ecf1f66212bf4f6ed7382d81cf88f95636fb218842190b6042",
            ),
            (
                "bseries --n 5 --method comb --order 40 --format csv",
                "fa3dc91379790dea31421e08b311b59228e88a028210f7a82665bc646e0cf7d4",
            ),
            (
                "bseries --n 5 --method theta --order 40 --format csv",
                "ebb9d64f69760020c32cb5ae2e781e9282eda1c03335a9f9d7bb07df5d74117b",
            ),
            (
                "bseries --n 5 --method both --order 40 --format csv",
                "7f23af81a27c1fbbaa1e58ad2d00b472eda54ec03057cbe03e151f7fc2a9c368",
            ),
            (
                "bseries --n 5 --method comb --order 40 --format table",
                "81604a9c7a644873ae7b5a3f467b10014c4eb3752d8f2d5423f734910efbed6b",
            ),
            (
                "bseries --n 5 --method theta --order 40 --format table",
                "f9fdb00756e0697c31424afc08f269c2b89e2092458931059d0f6fd699ac5906",
            ),
            (
                "bseries --n 5 --method both --order 40 --format table",
                "8ca8e3311e9461652e74fce114a2b9162c1288e878c7bc75406ed5ed772e6a5c",
            ),
            (
                "decompose --n 3 --max-k 12 --format csv",
                "f80d92ed9e38d8b08f5031f757862496cbb12ea28ec3741052711d486c1a1b9b",
            ),
            (
                "decompose --n 3 --max-k 12 --format table",
                "11a39b049b55a24245d7ad250c736149c2797bf4a26676b1a71c785652e2e8e2",
            ),
            # A witness cap of 0 leaves `+N more` alone in a cell, and a zero
            # count leaves the cell empty; its table line keeps the space.
            (
                "decompose --n 4 --max-k 6 --witness-cap 0 --format csv",
                "f5274b42d8520ac3cebaec819552b5484fcde96d3d7f904a5419053f992aa145",
            ),
            (
                "decompose --n 4 --max-k 6 --witness-cap 0 --format table",
                "643fc47b8525e556f0219579bfa235fc89eff513f83c812937d6d67cd647a614",
            ),
            (
                "decompose --n 4 --max-k 6 --witness-cap 1 --format csv",
                "8fb7ff83eb4f469c785de4caba8ccf9e4f97128b7192c5521e200beb85c17f47",
            ),
            (
                "decompose --n 4 --max-k 6 --witness-cap 1 --format table",
                "d8984fdf0ef1d85e4a7e1b5f4531b677e5a189ed2c9bf550ab99c637f41f4577",
            ),
        ],
    )
    def test_stdout_is_pinned(self, argv, digest, capsys):
        assert cli.main(argv.split()) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


json_scalars = st.none() | st.booleans() | st.integers() | st.text(max_size=8)
json_trees = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=12,
)


def printed(write, *args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        write(*args)
    return out.getvalue()


class TestStreamedJsonRows:
    @settings(max_examples=200, deadline=None)
    @given(
        st.dictionaries(st.text(max_size=6), json_trees, max_size=4),
        st.text(max_size=6),
        st.lists(json_trees, max_size=6),
    )
    def test_matches_the_joined_layout(self, head, key, rows):
        encoded = (json.dumps(row) for row in rows)
        assert printed(cli._print_json_rows, head, key, encoded) == printed(
            print_json_rows_joined, head, key, rows
        )

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 9),
        max_k=st.integers(0, 8),
        cap=st.none() | st.integers(0, 3),
    )
    @example(n=4, max_k=6, cap=None)
    @example(n=8, max_k=5, cap=1)
    @example(n=2, max_k=6, cap=0)
    def test_decompose_rows_match_the_encoded_row_dicts(self, n, max_k, cap):
        # The row dicts `decompose` once handed to `json` are the oracle.
        table = multiplicity_table(n, max_k, cap)
        expected = [
            json.dumps(
                {
                    "i": i,
                    "k": k,
                    "b": entry.count,
                    "witnesses": [w.pairs for w in entry.witnesses],
                    **({"witnesses_omitted": entry.omitted} if entry.omitted else {}),
                }
            )
            for (i, k), entry in sorted(table.items())
        ]
        assert list(cli._decompose_rows(table)) == expected

    def test_decompose_rows_write_the_null_shape_and_omitted_witnesses(self):
        rows = list(cli._decompose_rows(multiplicity_table(4, 6, 1)))
        assert rows[0] == '{"i": 0, "k": 0, "b": 1, "witnesses": [[]]}'
        assert '{"i": 0, "k": 6, "b": 9, "witnesses": [[[21, 1], [1, 3]]], "witnesses_omitted": 8}' in rows
        assert all(json.loads(row).get("witnesses_omitted", 1) != 0 for row in rows)

    def test_reader_closing_mid_output_is_not_an_error(self):
        proc = subprocess.Popen(
            [sys.executable, "-m", "qcrystal", "decompose", "--n", "2", "--max-k", "60", "--format", "json"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 0
        assert err == b""
