"""Command-line interface: formats, exit codes, determinism."""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from hurwitz import closedform, cutjoin
from hurwitz.cli import (
    EXIT_FAIL,
    EXIT_OK,
    EXIT_USAGE,
    OPTIONS,
    REQUIRED,
    _mu,
    main,
    parse_partition,
)
from hurwitz.oracle import ORACLE_MAX_N
from hurwitz.partitions import Partition, SizeLimitExceeded, partitions_of, theta
from hurwitz.series import PSeries


# SHA-256 of the `verify --N 8` report, the default truncation's
VERIFY_N8_DIGEST = "d68ead7cf1786ca348d0a4abc03d2a5ce5e5db6b2bd4e5217d98da719bfd403f"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPartitionParsing:
    def test_simple(self):
        alpha, reordered = parse_partition("3,2,2")
        assert alpha == Partition((3, 2, 2)) and not reordered

    def test_reordering_flagged(self):
        alpha, reordered = parse_partition("1,3")
        assert alpha == Partition((3, 1)) and reordered

    def test_garbage_rejected(self):
        for bad in ("", "a,b", "0", "-1,2", "3,,2", "3,2,"):
            with pytest.raises(ValueError):
                parse_partition(bad)


class TestCount:
    def test_closed_three_cycle(self, capsys):
        code, out, _ = run_cli(
            capsys, "count", "--alpha", "3", "--genus", "1", "--method", "closed"
        )
        assert code == EXIT_OK
        assert out.splitlines() == ["alpha,g,r,c,mu", "(3),1,4,27,9"]

    def test_vanishing_bracket(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--alpha", "1", "--genus", "1")
        assert code == EXIT_OK
        assert out.splitlines()[1] == "(1),1,2,0,0"

    def test_oracle_method(self, capsys):
        code, out, _ = run_cli(
            capsys, "count", "--alpha", "2,1", "--genus", "0", "--method", "oracle"
        )
        assert code == EXIT_OK
        assert out.splitlines()[1] == '"(2,1)",0,3,8,4'

    def test_methods_agree(self, capsys):
        rows = []
        for method in ("oracle", "cutjoin", "closed"):
            code, out, _ = run_cli(
                capsys, "count", "--alpha", "4,1", "--genus", "1", "--method", method
            )
            assert code == EXIT_OK
            rows.append(out)
        assert rows[0] == rows[1] == rows[2]

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "count", "--alpha", "2", "--genus", "1", "--format", "json"
        )
        assert code == EXIT_OK
        rec = json.loads(out)[0]
        assert rec["c"] == 1 and rec["mu"] == "1/2"
        assert rec["alpha"] == [2]  # partitions are integer arrays in JSON

    def test_reorder_warning_on_stderr(self, capsys):
        code, out, err = run_cli(capsys, "count", "--alpha", "1,2", "--genus", "0")
        assert code == EXIT_OK
        assert "reordered" in err

    def test_oracle_size_refusal(self, capsys):
        code, out, err = run_cli(
            capsys, "count", "--alpha", str(ORACLE_MAX_N + 1), "--genus", "0", "--method", "oracle"
        )
        assert code == EXIT_USAGE
        assert out == "" and err.startswith("error: ")
        assert f"ORACLE_MAX_N = {ORACLE_MAX_N}" in err

    def test_closed_genus_two_refused(self, capsys):
        code, _, err = run_cli(capsys, "count", "--alpha", "2", "--genus", "2")
        assert code == EXIT_USAGE
        assert "genus 2" in err

    def test_cutjoin_genus_two_allowed(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "count", "--alpha", "1,1", "--genus", "2", "--method", "cutjoin"
        )
        assert code == EXIT_OK
        # c_2((1,1)) counts length-6 walks in S_2 landing at the identity
        # with a transitive group: every nonzero sequence works
        assert out.splitlines()[1] == '"(1,1)",2,6,1,1/2'

    def test_non_integral_count_is_a_failure(self, capsys, monkeypatch):
        monkeypatch.setattr(closedform, "_OVER_R", (lambda alpha: (1, 7), closedform._c1_over_r))
        code, out, err = run_cli(capsys, "count", "--alpha", "3", "--genus", "0")
        assert code == EXIT_FAIL
        assert out == "" and err.startswith("error: non-integral count")

    @pytest.mark.parametrize("method", ["oracle", "cutjoin", "closed"])
    def test_negative_genus_refused(self, capsys, method):
        code, out, err = run_cli(
            capsys, "count", "--alpha", "3,2", "--genus", "-1", "--method", method
        )
        assert code == EXIT_USAGE
        assert out == "" and err == "error: genus must be nonnegative\n"

    def test_bad_partition_literal(self, capsys):
        code, _, err = run_cli(capsys, "count", "--alpha", "2;1", "--genus", "0")
        assert code == EXIT_USAGE


class TestMu:
    def test_mu_is_the_reduced_fraction(self):
        # cli._mu reduces c / theta(alpha) in integers; its bytes are those
        # of the Fraction it replaces, for zero and for every real count
        genus_max = 3
        state = cutjoin.evolve(12, genus_max)
        for n in range(1, 13):
            for alpha in partitions_of(n):
                counts = {0} | {cutjoin.extract_c(state, alpha, g) for g in range(genus_max + 1)}
                for c in counts:
                    assert _mu(alpha, c) == str(Fraction(c, theta(alpha))), (alpha, c)


class TestTable:
    def test_single_row(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--n", "1")
        assert code == EXIT_OK
        assert out.splitlines() == ["alpha,c0,mu0,c1,mu1", "(1),1,1,0,0"]

    def test_two_rows(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--n", "2")
        assert code == EXIT_OK
        assert out.splitlines() == [
            "alpha,c0,mu0,c1,mu1",
            "(2),1,1/2,1,1/2",
            '"(1,1)",1,1/2,1,1/2',
        ]

    def test_methods_agree_at_n6(self, capsys):
        _, closed_out, _ = run_cli(capsys, "table", "--n", "6", "--method", "closed")
        _, cutjoin_out, _ = run_cli(capsys, "table", "--n", "6", "--method", "cutjoin")
        assert closed_out == cutjoin_out

    def test_deterministic(self, capsys):
        _, first, _ = run_cli(capsys, "table", "--n", "5")
        _, second, _ = run_cli(capsys, "table", "--n", "5")
        assert first == second

    def test_cutjoin_evolves_at_the_query_bounds(self, capsys, monkeypatch):
        bounds = []
        evolve = cutjoin.evolve
        monkeypatch.setattr(
            cutjoin, "evolve", lambda N, G: bounds.append((N, G)) or evolve(N, G)
        )
        code, _, _ = run_cli(capsys, "table", "--n", "5", "--method", "cutjoin")
        assert code == EXIT_OK
        assert set(bounds) == {(5, 1)}


class TestVerify:
    def test_default_run_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--N", "6")
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["config"] == {"N": 6}
        assert all(c["status"] == "pass" for c in report["checks"])

    def test_default_truncation_is_the_pinned_N8_report(self, capsys):
        code, out, _ = run_cli(capsys, "verify")
        assert code == EXIT_OK
        assert json.loads(out)["config"] == {"N": 8}
        assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_N8_DIGEST

    @pytest.mark.parametrize("N", ["0", "-3"])
    def test_truncation_below_one_is_refused(self, capsys, N):
        code, out, err = run_cli(capsys, "verify", "--N", N)
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"error: truncation degree N={N} is below 1\n"

    def test_injected_fault_fails_with_witness(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--N", "6", "--inject-fault")
        assert code == EXIT_FAIL
        report = json.loads(out)
        failed = [c for c in report["checks"] if c["status"] == "fail"]
        assert failed and "witness" in failed[0]

    def test_failed_fixed_point_certificate_is_a_failure(self, capsys, monkeypatch):
        # perturb the exp of the builder x exp(psi_0(s)), so that the series
        # from the inversion formula no longer passes as its fixed point
        real_exp = closedform.exp
        monkeypatch.setattr(
            closedform, "exp", lambda f: real_exp(f) + PSeries.term(f.N, 1, x=2)
        )
        closedform.s_powers.cache_clear()
        code, out, err = run_cli(capsys, "verify", "--N", "5")
        assert code == EXIT_FAIL
        assert out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    # SHA-256 of the report bytes, recorded when the echoed config lost the
    # bounds "K" and "G" that no result depends on.  The checks entries are
    # those recorded at commit 06c69f1 (N=8) and f75081f (N=12): the product
    # kernel, the inversion formula and the integer rings changed no byte.
    # N=16 was recorded at f0c3948, before the kernel weights were tabulated,
    # and N=20 at c2b659b, before subst_x became a sum of shifts.
    @pytest.mark.parametrize(
        "argv, want_code, digest",
        [
            (("--N", "8"), EXIT_OK, VERIFY_N8_DIGEST),
            (
                ("--N", "8", "--inject-fault"),
                EXIT_FAIL,
                "4d33618b78ef679846f492662409b4a521ce60379dbfb35dd2713b856cf4893a",
            ),
            # the benchmarked report
            (
                ("--N", "12"),
                EXIT_OK,
                "57aea707a9140e1d682151b214566a17243749082cd69a1df2c03b7945a881ab",
            ),
            pytest.param(
                ("--N", "16"),
                EXIT_OK,
                "7a3d545af039a754d455958d669782665444a48c5f3b8d4c7855c58275eb5961",
                marks=pytest.mark.slow,
            ),
            # the largest documented size
            pytest.param(
                ("--N", "20"),
                EXIT_OK,
                "2fc2c3400ec984e0b0aa4760de28995270a944c4f72451406ec580656f1349b4",
                marks=pytest.mark.slow,
            ),
        ],
        ids=["N8", "N8-inject-fault", "N12", "N16", "N20"],
    )
    def test_report_bytes_are_pinned(self, capsys, argv, want_code, digest):
        code, out, _ = run_cli(capsys, "verify", *argv)
        assert code == want_code
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestCompare:
    def test_all_methods_agree_n4(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "--n", "4")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "alpha,g,oracle,cutjoin,closed,agree"
        assert len(lines) == 1 + 2 * 5  # five partitions, two genera
        assert all(line.endswith("yes") for line in lines[1:])

    def test_genus_max_flag(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "--n", "5", "--genus-max", "1")
        assert code == EXIT_OK

    def test_one_evolution_per_genus_bound(self, capsys):
        cutjoin.evolve.cache_clear()
        code, _, _ = run_cli(capsys, "compare", "--n", "8", "--genus-max", "3")
        assert code == EXIT_OK
        # one evolve(8, 3) serves every genus
        assert cutjoin.evolve.cache_info().misses == 1

    def test_oracle_column_through_walk_limit(self, capsys):
        code, out, err = run_cli(capsys, "compare", "--n", "6")
        assert code == EXIT_OK and err == ""
        lines = out.splitlines()
        assert lines[0] == "alpha,g,oracle,cutjoin,closed,agree"
        assert len(lines) == 1 + 2 * 11  # eleven partitions, two genera
        assert all(line.endswith(",yes") for line in lines[1:])

    def test_single_engine_rows_compare_nothing(self, capsys):
        # above the oracle's budget and the closed formulas' genera only
        # cut-and-join runs: such a row neither agrees nor disagrees
        n = ORACLE_MAX_N + 1
        code, out, _ = run_cli(capsys, "compare", "--n", str(n), "--genus-max", "2")
        assert code == EXIT_OK
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert rows and all(row[-1] == ("-" if row[1] == "2" else "yes") for row in rows)
        assert sum(row[1] == "2" for row in rows) == len(partitions_of(n))

    def test_single_engine_verdict_in_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare", "--n", str(ORACLE_MAX_N + 1), "--genus-max", "2", "--format", "json"
        )
        assert code == EXIT_OK
        records = json.loads(out)
        assert {(rec["g"], rec["agree"]) for rec in records} == {
            (0, "yes"), (1, "yes"), (2, "-")
        }
        # a column only for an engine that served a row, an empty cell where one refused
        assert not any("oracle" in rec for rec in records)
        assert all(rec["closed"] == "" for rec in records if rec["g"] == 2)

    @pytest.mark.slow
    def test_every_engine_agrees_at_the_oracle_budget(self, capsys):
        code, out, err = run_cli(capsys, "compare", "--n", str(ORACLE_MAX_N), "--genus-max", "3")
        assert code == EXIT_OK and err == ""
        lines = out.splitlines()
        assert lines[0] == "alpha,g,oracle,cutjoin,closed,agree"
        assert len(lines) == 1 + 4 * len(partitions_of(ORACLE_MAX_N))
        assert all(line.endswith(",yes") for line in lines[1:])

    def test_oracle_skipped_above_budget(self, capsys):
        n = ORACLE_MAX_N + 1
        code, out, err = run_cli(capsys, "compare", "--n", str(n))
        assert code == EXIT_OK
        assert err == (
            f"note: oracle skipped: oracle budget is n <= ORACLE_MAX_N = {ORACLE_MAX_N}; got n = {n}\n"
        )
        assert out.splitlines()[0] == "alpha,g,cutjoin,closed,agree"

    def test_an_engine_refusal_empties_its_cells(self, capsys, monkeypatch):
        # compare reads an engine's range from its refusal, not from a copy of it
        from hurwitz import oracle

        count = oracle.count_transitive

        def genus_zero_only(alpha, g):
            if g >= 1:
                raise SizeLimitExceeded(f"genus {g} refused")
            return count(alpha, g)

        monkeypatch.setattr(oracle, "count_transitive", genus_zero_only)
        code, out, err = run_cli(capsys, "compare", "--n", "5", "--genus-max", "1")
        assert code == EXIT_OK and err == ""
        header, *rows = csv.reader(io.StringIO(out))
        assert header == ["alpha", "g", "oracle", "cutjoin", "closed", "agree"]
        want = []
        for alpha in partitions_of(5):
            c0, c1 = str(count(alpha, 0)), str(closedform.c_value(alpha, 1))
            want += [[str(alpha), "0", c0, c0, c0, "yes"], [str(alpha), "1", "", c1, c1, "yes"]]
        assert rows == want


class TestPinnedOutput:
    # SHA-256 of the output bytes, recorded at commit 685059a: together with
    # the pinned verify reports this covers all three engines
    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ("compare", "--n", "6", "--genus-max", "2"),
                "83e8db0becd9590a656b132c8c4d879709dac786ef215e1e999d498caa525383",
            ),
            (
                ("table", "--n", "12", "--method", "closed"),
                "bc5717438f4dab5783a4243826cb0460ace20e7b71993d0a598be987b562f7d6",
            ),
            # recorded when the oracle column reached n = 8; without that
            # column the bytes equal those recorded at commit 5484334, when
            # this path still set the cut-and-join step count per query
            (
                ("compare", "--n", "8", "--genus-max", "3"),
                "de1cf8de1f71d198fbed039e7d3bae861097aef9f2f7d6a753e8d1648e29d3ff",
            ),
            # recorded at commit 5484334
            (
                ("count", "--alpha", "3,3,2", "--genus", "3", "--method", "cutjoin"),
                "6749f0e8e7953e320cbe1fe843514c6a81c4ea30fd08da30efbb5852ea5ffca2",
            ),
            # the benchmarked table, whose digest perfbench/run.py also
            # checks; n = 16 was recorded at commit 522264f, the last one
            # whose cut-and-join stored rationals
            (
                ("table", "--n", "13", "--method", "cutjoin"),
                "9d209f7085723ffd95c8ecab6706cf723084c13fed249ec6f94254f1670c4aa1",
            ),
            # the benchmarked oracle table; the three engines give these bytes
            (
                ("table", "--n", "7", "--method", "oracle"),
                "fd8eca4f832c8ca2eb063b1a25fa8cdea8508dc1b4f6996a5edd829a90ee6d0a",
            ),
            # the JSON writer, recorded at commit 74a0975
            (
                ("table", "--n", "7", "--method", "oracle", "--format", "json"),
                "7a7db74b2073662376fb4a09f845bf6c06aa2d7e881ff714f219d662a5f9538b",
            ),
            (
                ("compare", "--n", "6", "--genus-max", "2", "--format", "json"),
                "bbd91cfc4ff27f0ac28068fdc6340c7e29575266818d4b1f2e45319cfbc74897",
            ),
            (
                ("count", "--alpha", "3,2,2", "--genus", "1", "--format", "json"),
                "6d744af77c2de11991344f0fafe12cdf69a03b7984c652110ee9042e00bcde5c",
            ),
            pytest.param(
                ("table", "--n", "16", "--method", "cutjoin"),
                "85855bc854800e9dc941f862b48408a0573b0d0b02fcb39384ec0edb0c346eb5",
                marks=pytest.mark.slow,
            ),
            # recorded at commit 7ea9adf: 308 rows, all agreeing; every oracle
            # count within its budget (n <= 12, g <= 3)
            pytest.param(
                ("compare", "--n", "12", "--genus-max", "3"),
                "46a9bedb5710f4f43d1ca769749026c16368316ab94f6b434c99c023069a7aec",
                marks=pytest.mark.slow,
            ),
        ],
        ids=[
            "compare-n6-g2", "table-n12-closed", "compare-n8-g3", "count-332-g3-cutjoin",
            "table-n13-cutjoin", "table-n7-oracle", "table-n7-oracle-json", "compare-n6-g2-json",
            "count-322-g1-json", "table-n16-cutjoin", "compare-n12-g3",
        ],
    )
    def test_output_bytes_are_pinned(self, capsys, argv, digest):
        code, out, _ = run_cli(capsys, *argv)
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestUsage:
    def test_missing_subcommand(self, capsys):
        assert run_cli(capsys)[0] == EXIT_USAGE

    def test_unknown_flag(self, capsys):
        assert run_cli(capsys, "count", "--frobnicate")[0] == EXIT_USAGE

    def test_option_strings_of_each_command(self):
        options = {name: sorted(opts) for name, opts in OPTIONS.items()}
        assert options == {
            "count": ["--alpha", "--format", "--genus", "--method"],
            "table": ["--format", "--method", "--n"],
            "verify": ["--N", "--inject-fault"],
            "compare": ["--format", "--genus-max", "--n"],
        }

    # "--opt=value" reads as "--opt value", and a repeated option keeps its
    # last value; stdout, stderr and exit status are the same
    @pytest.mark.parametrize(
        "argv, same",
        [
            (("table", "--n=5"), ("table", "--n", "5")),
            (
                ("count", "--alpha=2,1", "--method=oracle"),
                ("count", "--alpha", "2,1", "--method", "oracle"),
            ),
            (("count", "--alpha", "3", "--genus=-1"), ("count", "--alpha", "3", "--genus", "-1")),
            (("table", "--n", "4", "--n", "5"), ("table", "--n", "5")),
            (
                ("verify", "--N", "4", "--inject-fault", "--inject-fault"),
                ("verify", "--N", "4", "--inject-fault"),
            ),
        ],
        ids=["equals", "equals-choice", "equals-negative", "repeated", "repeated-flag"],
    )
    def test_option_spellings_agree(self, capsys, argv, same):
        assert run_cli(capsys, *argv) == run_cli(capsys, *same)

    # every parse failure is one "error: ..." line naming the command or
    # option at fault, exit 2 and nothing on stdout; argparse's prefix
    # abbreviations (--genus for --genus-max) are not accepted
    @pytest.mark.parametrize(
        "argv, named",
        [
            ((), "command"),
            (("frobnicate",), "frobnicate"),
            (("table",), "--n"),
            (("count",), "--alpha"),
            (("table", "--n"), "--n"),
            (("table", "--n", "five"), "--n"),
            (("table", "--n", "3", "--method", "slow"), "--method"),
            (("table", "--n", "3", "--format", "xml"), "--format"),
            (("verify", "--inject-fault=1"), "--inject-fault"),
            (("compare", "--n", "3", "--genus", "1"), "--genus"),
            # only ASCII digits after an optional "-" read as an integer
            (("table", "--n", "1_0"), "--n"),
            (("count", "--alpha", " 3,+2"), "partition literal"),
            (("table", "--n", "\u0663"), "--n"),
        ],
        ids=[
            "no-command", "unknown-command", "table-no-n", "count-no-alpha", "n-no-value",
            "n-not-int", "bad-method", "bad-format", "flag-value", "abbreviation",
            "n-underscore", "alpha-space-plus", "n-non-ascii-digit",
        ],
    )
    def test_parse_error(self, capsys, argv, named):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("error: ") and len(err.splitlines()) == 1 and named in err

    @pytest.mark.parametrize(
        "argv, commands",
        [
            (("--help",), tuple(OPTIONS)),
            (("-h",), tuple(OPTIONS)),
            *(((name, "--help"), (name,)) for name in OPTIONS),
            (("count", "--alpha", "3", "-h"), ("count",)),
        ],
        ids=["help", "h", *(f"{name}-help" for name in OPTIONS), "count-h-after-option"],
    )
    def test_help_lists_every_option(self, capsys, argv, commands):
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (EXIT_OK, "")
        # one block per command: "name: summary", then one line per option
        blocks = {block.split(":", 1)[0]: block for block in out.split("\n\n")}
        for name in OPTIONS:
            assert (name in blocks) == (name in commands)
        for name in commands:
            rows = {line.split()[0]: line for line in blocks[name].splitlines()[1:]}
            assert rows.keys() == OPTIONS[name].keys()
            for opt, (kind, default, choices) in OPTIONS[name].items():
                want = (
                    "required" if default is REQUIRED
                    else "default off" if kind is bool else f"default {default}"
                )
                assert rows[opt].endswith(want)
                assert all(choice in rows[opt] for choice in choices or ())

    # bounds that no result depends on, and verify's format, are not options
    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "--K", "9"),
            ("verify", "--G", "1"),
            ("verify", "--format", "csv"),
            ("table", "--n", "3", "--N", "4"),
            ("count", "--alpha", "2", "--K", "2"),
            ("compare", "--n", "3", "--G", "2"),
        ],
    )
    def test_removed_option_refused(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code == EXIT_USAGE and out == ""

    def test_compare_genus_two(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "--n", "3", "--genus-max", "2")
        assert code == EXIT_OK
        lines = out.splitlines()
        # closed-formula column is empty beyond genus 1; others still agree
        assert "(3),2,243,243,,yes" in lines

    def test_negative_genus_max_refused(self, capsys):
        code, out, err = run_cli(capsys, "compare", "--n", "3", "--genus-max", "-1")
        assert code == EXIT_USAGE
        assert out == ""
        assert "--genus-max" in err


class TestOptimizedInterpreter:
    # no check may live in an assert: `python -O` must give the same report
    @pytest.mark.parametrize("extra", [(), ("--inject-fault",)], ids=["sound", "fault"])
    def test_report_survives_dash_o(self, extra):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        argv = ["-m", "hurwitz", "verify", "--N", "6", *extra]
        plain, optimized = (
            subprocess.run([sys.executable, *flags, *argv], capture_output=True, env=env)
            for flags in ((), ("-O",))
        )
        assert plain.returncode == (EXIT_FAIL if extra else EXIT_OK)
        assert json.loads(plain.stdout)["config"] == {"N": 6}
        assert (optimized.returncode, optimized.stdout) == (plain.returncode, plain.stdout)


class TestClosedStdout:
    # a reader that quits early (`hurwitz table ... | head -1`) ends the
    # command with exit 1 and no traceback; buffered, the pipe breaks at the
    # final flush, unbuffered at the first write
    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize(
        "argv",
        [("table", "--n", "3"), ("verify", "--N", "8"), ("--help",)],
        ids=["table", "verify", "help"],
    )
    def test_closed_reader_exits_quietly(self, argv, unbuffered):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = unbuffered
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "hurwitz", *argv], stdout=write_end,
                stderr=subprocess.PIPE, env=env,
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (EXIT_FAIL, b"")
