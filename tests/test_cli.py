import dataclasses
import hashlib
import json

import pytest

from schurperturb import cli
from schurperturb.cli import (
    EXIT_BUDGET,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VIOLATION,
    cli_dispatch,
    curve_csv,
    curve_plotdata,
    parse_set,
    wilson_interval,
)
from schurperturb.constructions import L2, mod5_construction
from schurperturb.intset import IntSet
from schurperturb.montecarlo import RngSpec, SweepCurve, sweep
from schurperturb.solver import SchurStatus
from schurperturb.wickets import iter_wickets


def run(capsys, *argv):
    code = cli_dispatch(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# Containers and a sweep config for the golden corpus: "gap" leaves 12 on
# neither side; "split" makes 9 and 10 red-only, which --force-blue overrides.
GOLDEN_FILES = {
    "gap": {"n": 12, "red": list(range(1, 7)), "blue": list(range(5, 12))},
    "split": {"n": 12, "red": list(range(1, 11)), "blue": list(range(1, 9)) + [11, 12]},
    "sweep": {
        "n": 300,
        "base": "construct:dense0:300,15",
        "p_grid": [0.0111, 0.0223, 0.0335],
        "trials": 20,
        "seed": 11,
        "budget": 100000,
    },
}

# argv (file placeholders in braces) -> (exit code, sha256 of stdout, first
# 16 hex digits)
GOLDEN = [
    (("check-schur", "1-5"), 0, "c3ceb62598001cd5"),
    (("check-schur", "1-4"), 0, "f7e051004cfd67fb"),
    (("check-schur", "1-13", "--budget", "0"), 3, "c80c3db2b2cb606b"),
    (("check-schur", "construct:mod5", "--n", "40"), 0, "f7e051004cfd67fb"),
    (("colour", "1-4"), 0, "037bb2e18d9f585d"),
    (("colour", "1-5"), 1, "457388af2eb6a792"),
    (("colour", "2-4,9-10", "--force-blue", "9,10"), 0, "bda5fa5d162be17a"),
    (("colour", "1-2", "--force-blue", "1,2"), 1, "9c0e950849d0489c"),
    (("colour", "construct:dense0:300,15"), 0, "487782accb201de7"),
    (("colour", "1-30", "--budget", "3"), 1, "457388af2eb6a792"),
    (("colour", "1-30", "--force-blue", "30", "--budget", "1"), 3, "575fe30371a094ec"),
    (("colour", "1,5-6,9-11", "--container", "{gap}"), 0, "4bb82b901adf169b"),
    (("colour", "1,5-6,9-12", "--container", "{gap}"), 1, "9c0e950849d0489c"),
    (("colour", "2-4,9-12", "--container", "{split}", "--force-blue", "9,10"), 0, "3ee2c543e9e915e5"),
    (("construct", "mod5", "--n", "40"), 0, "50fa3e2fe1d385e3"),
    (("construct", "mod5", "--n", "2000", "--validate"), 0, "b3eaaf4b115321ca"),
    (("construct", "dense0:300,15", "--validate"), 0, "07233f106e54678b"),
    (("construct", "dense0:3000,40"), 0, "3d96a2526e9ddd56"),
    (("obstruction", "construct:sparse:200,14", "3,50", "--n", "200"), 0, "1916bbd972c6834c"),
    (("obstruction", "construct:sparse:200,14", "5,10", "--n", "200"), 0, "fc0f8f45308de94a"),
    (("sweep", "--config", "{sweep}"), 0, "380581e9edb7d94f"),
    (("verify", "--suite", "hu"), 0, "270a82a6a4c6b389"),
    (("verify", "--suite", "prop31"), 0, "18aa232c30b5f582"),
    # a 3-uniform obstruction whose loose cycle is a triangle, not the
    # sunflower of its three edges through 1
    (("obstruction", "construct:sparse:200,14", "1,7,11,15,18,23-24,29,40,49,59,62-63,70-71,"
      "79-80,83-84,96,98,111,113,117,120,125-126,133,138,141,146,156,163-165,173,190-191,193,198",
      "--n", "200"), 0, "924bf29eff0ad7d6"),
    # the batched counting kernels: wicket rows of a set that is not an
    # interval, with legs on a subset; and the H_A statistics
    (("wickets", "1-17,19,22-30,33,35-41", "--chi", "1-11,13,15-17,22-29,33,35-41"), 0, "b9c50fde7d7a1de6"),
    (("wickets", "3-41"), 0, "bfac362854652c11"),
    (("ha-stats", "5,9,14,22,31,40-44", "--n", "70", "--tau", "0.5"), 0, "6306c6f1ea36f3f5"),
]


class TestGoldenCorpus:
    """Stdout and exit code of a fixed command corpus, recorded before the
    colourings, constraints and verdicts moved to one representation."""

    @pytest.mark.parametrize("argv,code,digest", GOLDEN)
    def test_same_output(self, capsys, tmp_path, argv, code, digest):
        paths = {}
        for name, body in GOLDEN_FILES.items():
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(json.dumps(body))
        got, out, _ = run(capsys, *(a.format(**paths) for a in argv))
        assert (got, hashlib.sha256(out.encode()).hexdigest()[:16]) == (code, digest)


class TestParseSet:
    def test_runs(self):
        assert parse_set("1-3,7", 10) == IntSet(10, [1, 2, 3, 7])

    def test_construct_prefix(self):
        assert parse_set("construct:odd", 9) == IntSet(9, [1, 3, 5, 7, 9])
        assert parse_set("construct:sparse:20,4") == IntSet.interval(20, 17, 20)
        assert parse_set("construct:mod5", 10) == mod5_construction(10)[0]
        assert parse_set("construct:dense0:100,10").n == 100

    def test_bad_literal(self):
        with pytest.raises(ValueError):
            parse_set("1-", 5)


class TestCheckSchur:
    def test_schur(self, capsys):
        code, out, _ = run(capsys, "check-schur", "1-5")
        assert code == EXIT_OK
        assert out.strip() == "Schur"

    def test_not_schur(self, capsys):
        code, out, _ = run(capsys, "check-schur", "1-4")
        assert code == EXIT_OK
        assert out.strip() == "NotSchur"

    def test_budget_exit(self, capsys):
        code, out, _ = run(capsys, "check-schur", "1-20", "--budget", "0")
        assert code == EXIT_BUDGET
        assert out.strip() == "Unknown"


class TestColour:
    def test_colourable(self, capsys):
        code, out, _ = run(capsys, "colour", "1-4")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["status"] == "colourable"
        assert set(data) >= {"red", "blue", "nodes"}

    def test_not_colourable(self, capsys):
        code, out, _ = run(capsys, "colour", "1-5")
        assert code == EXIT_VIOLATION

    def test_force_blue(self, capsys):
        code, out, _ = run(capsys, "colour", "2-4,9-10", "--n", "10",
                           "--force-blue", "9-10")
        assert code == EXIT_OK
        data = json.loads(out)
        assert {9, 10} <= set(data["blue"])

    def test_container(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"n": 4, "red": [1, 2, 3, 4], "blue": []}))
        code, out, _ = run(capsys, "colour", "1-4", "--container", str(path))
        assert code == EXIT_VIOLATION  # [4] all red has 1+2=3


class TestConstruct:
    def test_validate_mod5(self, capsys):
        code, out, _ = run(capsys, "construct", "mod5", "--n", "10", "--validate")
        assert code == EXIT_OK
        assert "valid" in out

    def test_plain(self, capsys):
        code, out, _ = run(capsys, "construct", "sparse:20,4")
        assert code == EXIT_OK
        assert json.loads(out)["set"] == "17-20"

    def test_validate_without_colouring(self, capsys):
        code, _, err = run(capsys, "construct", "odd", "--n", "9", "--validate")
        assert code == EXIT_USAGE

    def test_dense_zero_at_a_million(self, capsys):
        # A = [499001, 10^6]; B = [499001, 998000] is blue, C = (998000, 10^6] red
        n, t = 10**6, 1000
        code, out, _ = run(capsys, "construct", f"dense0:{n},{t}")
        assert code == EXIT_OK
        data = json.loads(out)
        lo, split = (n + 1) // 2 + 1 - t, n - 2 * t
        assert data["set"] == f"{lo}-{n}"
        assert data["size"] == n - lo + 1
        blue, red = set(data["blue"]), set(data["red"])
        assert len(blue) + len(red) == data["size"]
        for e in [lo, lo + 1, split - 1, split, split + 1, n - 1, n, *range(lo, n, 9973)]:
            assert (e in blue, e in red) == (e <= split, e > split)


class TestObstruction:
    def test_colourable(self, capsys):
        code, out, _ = run(capsys, "obstruction", "9-10", "2-4", "--n", "10")
        assert code == EXIT_OK
        assert json.loads(out)["status"] == "colourable"

    def test_obstruction_found(self, capsys):
        # 5, 10 in P forced red through two-base edges; {5,10} monochromatic
        code, out, _ = run(
            capsys, "obstruction", "construct:sparse:200,14", "5,10", "--n", "200"
        )
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["status"] == "not_colourable"
        assert data["edges"]

    @pytest.mark.parametrize(
        "argv",
        [
            ("obstruction", "construct:sparse:200,14", "5,10", "--n", "200"),
            ("check-schur", "1-5"),
        ],
    )
    def test_negative_budget(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--budget", "-1")
        assert code == EXIT_USAGE
        assert out == ""
        assert err.strip() == "error: budget must be >= 0"


class TestWickets:
    def test_count(self, capsys):
        code, out, _ = run(capsys, "wickets", "1-9")
        assert code == EXIT_OK and out.strip() == "0"

    def test_methods_agree(self, capsys):
        _, fast, _ = run(capsys, "wickets", "1-13")
        assert fast == f"{sum(1 for _ in iter_wickets(IntSet.full(13)))}\n"


class TestHaStats:
    def test_worked_example(self, capsys):
        code, out, _ = run(capsys, "ha-stats", "3", "--n", "4")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["edge_count"] == 4
        assert data["max_quad_degree"] == 1


class TestThresholds:
    def test_output(self, capsys):
        code, out, _ = run(capsys, "thresholds", "--n", "1000000", "--t", "10")
        assert code == EXIT_OK
        data = json.loads(out)
        assert float(data["dense"]) == pytest.approx(1e-4)
        assert data["sparse_zero"] is None

    @pytest.mark.parametrize("arg", [("--t", "-5"), ("--t", "0"), ("--s", "-1"), ("--s", "501")])
    def test_out_of_range(self, capsys, arg):
        code, out, err = run(capsys, "thresholds", "--n", "1000", *arg)
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("error: require 1 <= ")


class TestSweepCommand:
    def _config(self, tmp_path, **overrides):
        cfg = {
            "n": 20,
            "base": "construct:sparse:20,4",
            "p_grid": [0.1, 0.9],
            "trials": 5,
            "seed": 11,
            "budget": 100000,
        }
        cfg.update(overrides)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    def test_stdout_json(self, capsys, tmp_path):
        code, out, _ = run(capsys, "sweep", "--config", self._config(tmp_path))
        assert code == EXIT_OK
        data = json.loads(out)
        assert len(data["points"]) == 2
        assert data["master_seed"] == 11

    def test_deep_sparse_search(self, capsys, tmp_path):
        # about a thousand branching decisions deep: the recursive solver
        # raised RecursionError on this trial
        n = 3_000_000
        path = self._config(
            tmp_path, n=n, base=f"construct:sparse:{n},10", p_grid=[0.001],
            trials=1, seed=3, budget=10**7,
        )
        code, out, _ = run(capsys, "sweep", "--config", path)
        assert code == EXIT_OK
        assert json.loads(out)["points"][0]["not_schur"] == 1

    def test_empty_grid_rejected(self, capsys, tmp_path):
        code, out, err = run(capsys, "sweep", "--config", self._config(tmp_path, p_grid=[]))
        assert (code, out) == (EXIT_USAGE, "")
        assert "p_grid must not be empty" in err

    def test_workers_below_one_rejected(self, capsys, tmp_path, monkeypatch):
        config = self._config(tmp_path)
        for flag in ("0", "-3"):
            code, out, err = run(capsys, "sweep", "--config", config, "--workers", flag)
            assert (code, out) == (EXIT_USAGE, "")
            assert "workers must be >= 1" in err
        monkeypatch.setenv("SCHURPERTURB_WORKERS", "0")
        code, out, err = run(capsys, "sweep", "--config", config)
        assert (code, out) == (EXIT_USAGE, "")
        assert "workers must be >= 1" in err

    def test_seed_mandatory(self, capsys, tmp_path):
        path = self._config(tmp_path, seed=None)
        code, _, err = run(capsys, "sweep", "--config", path)
        assert code == EXIT_USAGE

    def test_output_files(self, capsys, tmp_path):
        out_prefix = str(tmp_path / "res")
        code, _, _ = run(capsys, "sweep", "--config", self._config(tmp_path),
                         "--out", out_prefix)
        assert code == EXIT_OK
        body = (tmp_path / "res.csv").read_text()
        assert body.startswith("p,trials,schur,not_schur,unknown,mean_sample_size\n")
        assert len((tmp_path / "res.plot").read_text().splitlines()) == 2
        json.loads((tmp_path / "res.json").read_text())

    def test_plot_data_round_trip(self, capsys, tmp_path):
        # budget 0 leaves no decided trial at p = 0.9 (y = 0, yerr = 1);
        # .12g writes p = 1e-05 with an exponent
        cases = (({}, None), ({"p_grid": [1e-05, 0.9], "budget": 0}, "0.9 0 1"))
        for overrides, line in cases:
            out_prefix = str(tmp_path / "res")
            config = self._config(tmp_path, **overrides)
            run(capsys, "sweep", "--config", config, "--out", out_prefix)
            code, out, _ = run(capsys, "plot-data", out_prefix + ".json")
            assert code == EXIT_OK
            assert out == (tmp_path / "res.plot").read_text()
            assert line is None or line in out.splitlines()


class TestVerify:
    def test_hu_small(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "hu", "--n-max", "10")
        assert code == EXIT_OK
        assert "ok" in out

    def test_claim48(self, capsys):
        code, _, _ = run(capsys, "verify", "--suite", "claim48", "--n-max", "40")
        assert code == EXIT_OK

    def test_wickets(self, capsys):
        code, _, _ = run(capsys, "verify", "--suite", "wickets", "--n-max", "12",
                         "--trials", "3")
        assert code == EXIT_OK

    def test_moments(self, capsys):
        code, _, _ = run(capsys, "verify", "--suite", "moments", "--trials", "10")
        assert code == EXIT_OK

    def test_options_the_suite_does_not_take_rejected(self, capsys):
        # each given option outside the suite's parameters is named, and
        # the suite does not run
        code, out, err = run(capsys, "verify", "--suite", "hu", "--n-max", "11",
                             "--seed", "5", "--trials", "3")
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "error: suite hu takes no --seed, --trials\n"
        code, out, err = run(capsys, "verify", "--suite", "moments", "--n-max", "500",
                             "--trials", "2")
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "error: suite moments takes no --n-max\n"

    def test_stability_bound_attained(self, capsys):
        # min S >= |S| holds, with equality at {6, ..., 11} in [11]
        code, out, _ = run(capsys, "verify", "--suite", "stability",
                           "--n-max", "12")
        assert code == EXIT_OK
        assert out == "suite stability: ok\n"

    def test_prop31_reports_a_set_that_is_not_schur(self, capsys, monkeypatch):
        real = cli.is_schur
        bad = L2(3, 9, 1)

        def wrong_on_bad(s, *args):
            return SchurStatus.NOT_SCHUR if s == bad else real(s, *args)

        monkeypatch.setattr(cli, "is_schur", wrong_on_bad)
        code, out, _ = run(capsys, "verify", "--suite", "prop31", "--n-max", "12",
                           "--trials", "5")
        assert code == EXIT_VIOLATION
        assert out == "FAIL prop31: L2(3,9,1) not Schur\nsuite prop31: 1 failures\n"

    def test_moments_reports_delta_above_the_bound(self, capsys, monkeypatch):
        real = cli.triple_moments

        def inflated(triples, n, p):
            m = real(triples, n, p)
            return dataclasses.replace(m, delta_exact=2 * m.delta_star)

        monkeypatch.setattr(cli, "triple_moments", inflated)
        code, out, _ = run(capsys, "verify", "--suite", "moments", "--trials", "3")
        assert code == EXIT_VIOLATION
        *fails, summary = out.splitlines()
        assert summary == "suite moments: 6 failures"  # 3 instances per stream
        assert len(fails) == 6
        assert all(line.startswith("FAIL moments: delta_exact > delta_star at n=") for line in fails)


class TestEmission:
    def test_wilson(self):
        lo, hi = wilson_interval(5, 10)
        assert 0 < lo < 0.5 < hi < 1
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_emit_formats(self):
        curve = sweep(IntSet(6), 6, [0.0, 1.0], 3, RngSpec(2))
        assert json.loads(curve.to_json())["n"] == 6
        assert curve_csv(curve).count("\n") == 3
        assert curve_plotdata(curve).count("\n") == 2

    def test_empty_curve_csv(self):
        # a curve read back from results with no points (sweep itself
        # rejects an empty grid)
        curve = SweepCurve(n=6, base="custom", master_seed=2, budget=10, p_grid=[], points=[])
        assert curve_csv(curve) == "p,trials,schur,not_schur,unknown,mean_sample_size\n"


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert cli_dispatch(["frobnicate"]) == EXIT_USAGE

    @pytest.mark.parametrize("argv, body", [
        (["plot-data"], '{"points": [{"p": "0.1"}]}'),
        (["plot-data"], "[1, 2]"),
        (["sweep", "--config"], "[1]"),
        (["sweep", "--config"],
         '{"n": 20, "base": "1-3", "trials": 2, "seed": 1, "p_grid": 5}'),
        (["sweep", "--config"],
         '{"n": 20, "base": 5, "trials": 2, "seed": 1, "p_grid": [0.5]}'),
    ])
    def test_malformed_json_input(self, capsys, tmp_path, argv, body):
        path = tmp_path / "input.json"
        path.write_text(body)
        code, out, err = run(capsys, *argv, str(path))
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_bad_set(self, capsys):
        code, _, err = run(capsys, "check-schur", "construct:nope")
        assert code == EXIT_USAGE

    def test_reversed_run(self, capsys):
        code, out, err = run(capsys, "check-schur", "5-3")
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("error: bad set literal '5-3'")
