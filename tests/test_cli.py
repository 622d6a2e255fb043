import contextlib
import functools
import hashlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pgq
from pgq import cli, fixtures, helpmethod


def run(argv):
    out = io.StringIO()
    code = cli.main(argv, out=out)
    return code, out.getvalue()


class TestHelpCheck:
    def test_thompson_exclusion(self):
        code, text = run(["help-check", "--table", "thompson", "--order", "35"])
        assert code == 0
        assert "INFEASIBLE: no normalized unit of order 35" in text
        assert "-8 <= e_5a <= 2" in text

    def test_onan_inconclusive(self):
        code, text = run(["help-check", "--table", "onan", "--order", "21"])
        assert code == 1
        assert "feasible point exists" in text.lower()

    @pytest.mark.parametrize("table, order, code, digest", [
        ("onan", 21, 1, "fe08f4ed54a0dff071cc3c6a7980a8c3ec0335b26a48ac4097e1f4d585c1017b"),
        ("thompson", 35, 0, "78910c25cf959ecc3cf5eca67e9a3328459da81f453946cb8e66363e6abbebf8"),
        ("s5", 4, 1, "295b79ee8c4fbd7540b41310bac79b4ea06c4844fd5f28797c8368228da4b62a"),
        ("s5", 10, 0, "b7ce9dcd97505ae334d81502f46129ad7a2de2c0b6651c30d841bb4b7a47c8f2"),
        ("s5", 15, 0, "1c46cfbc082c8eb5858b96d5fbf552fc26a67e9f88be5ab521197b49385be215"),
        ("c21", 3, 1, "1ceb8c2485a65003955f48854f286b8caff12362e3d2d03256a608cc54f39038"),
        ("c21", 7, 1, "0ddb22f00244fad3dbc925d7d5ec0ab24f32884f1f21538d42d82f1752cfcaaf"),
        ("c21", 21, 1, "905041f289ead552c4c07c1be833da3cef19dabe9d3c7790c5aa23e847ebb075"),
        ("s5", 12, 0, "232f19f9f1438d347939e0f9a145ced6cf677877690084c168cec8998fd9fe20"),
        ("s5", 20, 0, "d8696bc4dbb16bb62dc1fa6391a27397a78faedded0ba62080600a267d0fd9df"),
        ("s5", 60, 0, "9abc3046c454a36ceb1484a5d9bfe86c29eca6f1a92d1c84ff933a691b209224"),
        ("c21", 63, 0, "6affe61df397d2ac238067ca7e6241b781242e92c94b6c3d7064e62f728c7e5b"),
        ("c21", 147, 0, "2882d5a7329bb5a2c50685a1caae6ec643c697c745afd4d920142c8ce8fba7bb"),
        ("c21", 9, 0, "96f90bcbd01fdffb67e9ee794984cd560be1884e8d58ef46d54c5c5390808cc8"),
        # every branch is empty
        ("c21", 49, 0, "41c20ccaf172623f7060af04f2a033af0f5182e74765bb6fe8427c6bd5d35598"),
        ("s5", 6, 1, "d09f79514b8f069dab3a4899813c00ff4eef2a671e4e90b9ae02505f57115c55"),
        ("s5", 30, 0, "9839538cb4b883e96b9bb5c2eb13bb868cd445954cb0f144e9ed5d2260e179ed"),
    ], ids=["onan-21", "thompson-35", "s5-4", "s5-10", "s5-15", "c21-3", "c21-7", "c21-21",
            "s5-12", "s5-20", "s5-60", "c21-63", "c21-147", "c21-9", "c21-49", "s5-6", "s5-30"])
    def test_json_bytes_pinned(self, table, order, code, digest):
        exit_code, text = run(["help-check", "--table", table, "--order", str(order),
                               "--format", "json"])
        assert exit_code == code
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("table, order, chars, code, digest, reason", [
        ("s5", 12, "sgn", 1, "da1bf6db3752bd7c9ec754025db4d8049a91d2efe0624a3c216d457685ef70a8",
         "order 6: no supplied character bounds 2a, 2b, 3a, 6a\n"),
        ("c21", 63, "X1", 0, "ff978cfc12688c0d7da9dcc957d8c2fa0424cb3d9a901113f423ab5edd8e6272",
         ""),
        ("s5", 6, "triv", 1, "da1bf6db3752bd7c9ec754025db4d8049a91d2efe0624a3c216d457685ef70a8",
         "order 2: no supplied character bounds 2a, 2b\n"),
    ], ids=["s5-12-sgn", "c21-63-X1", "s5-6-triv"])
    def test_character_subset_bytes_pinned(self, capsys, table, order, chars, code, digest,
                                           reason):
        # an unbounded sub-order, an empty one beside an unbounded one, and an
        # unbounded order 2 under a single character
        exit_code, text = run(["help-check", "--table", table, "--order", str(order),
                               "--characters", chars])
        assert exit_code == code
        assert hashlib.sha256(text.encode()).hexdigest() == digest
        assert capsys.readouterr().err == reason

    def test_wide_rows_answer_from_the_residue_class(self, tmp_path):
        # the congruences force eps = 15 (mod 21), which no row divisibility allows
        path = tmp_path / "rows.json"
        path.write_text(json.dumps(dict(fixtures.load_json("onan.json"),
                                        rows=[[10**12, 1], [10**12, -1]])))
        code, text = run(["help-check", "--table", str(path), "--order", "21"])
        assert code == 0 and text.startswith("INFEASIBLE")

    def test_too_many_candidates_is_inconclusive(self, tmp_path):
        # here the rows allow the class eps = 15 (mod 21): about 10^11 candidates
        path = tmp_path / "rows.json"
        path.write_text(json.dumps(dict(fixtures.load_json("onan.json"),
                                        rows=[[10**12 + 5, 1], [10**12 + 14, -1]])))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, text = run(["help-check", "--table", str(path), "--order", "21"])
        assert (code, text) == (1, "INCONCLUSIVE: search region too large for exact "
                                   "enumeration\n")
        assert err.getvalue().endswith("candidates exceed cap 2000000\n")
        code, text = run(["help-check", "--table", str(path), "--order", "21",
                          "--format", "json"])
        assert code == 1 and json.loads(text)["status"] == "too-large"

    def test_order_mismatch_on_rows_fixture(self):
        code, _ = run(["help-check", "--table", "onan", "--order", "35"])
        assert code == 2

    def test_json_format(self):
        code, text = run(["help-check", "--table", "thompson", "--order", "35",
                          "--format", "json"])
        assert code == 0
        doc = json.loads(text)
        assert doc["status"] == "infeasible"
        assert doc["bounds"]["5a"] == [-8, 2]

    @pytest.mark.parametrize("order, count", [(7, 6), (21, 12)])
    def test_c21_admits_exactly_the_trivial_units(self, order, count):
        code, text = run(["help-check", "--table", "c21", "--order", str(order),
                          "--format", "json"])
        doc = json.loads(text)
        assert code == 1 and doc["status"] == "feasible"
        c21 = fixtures.load_slice("c21")
        trivial = [helpmethod.trivial_pa(c21, c.name).to_json()
                   for c in c21.classes if c.order == order]
        assert len(trivial) == count
        key = functools.partial(json.dumps, sort_keys=True)
        assert sorted(map(key, doc["feasible"])) == sorted(map(key, trivial))

    def test_inconclusive_names_its_limit_on_stderr(self):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, text = run(["help-check", "--table", "s5", "--order", "2",
                              "--characters", "triv"])
        assert (code, text) == (1, "INCONCLUSIVE: unbounded search region (no character "
                                   "pins a variable)\n")
        assert err.getvalue() == "order 2: no supplied character bounds 2a, 2b\n"

    def test_feasible_order_on_small_group(self):
        code, text = run(["help-check", "--table", "s5", "--order", "6"])
        assert code == 1
        assert "FEASIBLE" in text
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "66d602f64b5f5a5d550e59404f50b8ad5fdde7b300f7147b63fbf7f55e526a83")

    def test_unit_order_with_two_large_prime_factors_answers(self):
        # 2 * (2^61 - 1): the divisors of the order need a complete factorizer
        code, text = run(["help-check", "--table", "s5", "--order", str(2 * (2**61 - 1))])
        assert code == 0 and text.startswith("INFEASIBLE")

    def test_group_order_with_two_large_prime_factors_answers(self, tmp_path):
        # the congruences factor the group order; the large primes add none that bind
        path = tmp_path / "c21.json"
        order = 21 * (2**61 - 1) * (2**31 - 1)
        path.write_text(json.dumps(dict(fixtures.load_json("c21.json"), order=str(order))))
        argv = ["help-check", "--order", "3", "--table"]
        assert run([*argv, str(path)]) == run([*argv, "c21"])

    @pytest.mark.parametrize("character, cls, value", [
        ("triv", "1a", "1 @ 1000000007"),
        ("std", "2a", "2 @ 1000000006"),
        ("triv", "1a", f"1 @ {2**61 - 1}"),
    ])
    def test_value_at_a_huge_level_answers(self, tmp_path, character, cls, value):
        # subfield membership and the trace rows cost what the support costs
        path = _s5_with_value(tmp_path, character, cls, value)
        argv = ["help-check", "--order", "2", "--table"]
        assert run([*argv, str(path)]) == run([*argv, "s5"])

    def test_value_rewriting_to_too_many_terms_is_an_input_error(self, tmp_path, capsys):
        # at a prime level p the last power of zeta_p rewrites to p - 1 terms
        p = 2**61 - 1
        path = _s5_with_value(tmp_path, "std", "2a", f"1*z^{p - 1} @ {p}")
        code, text = run(["help-check", "--order", "2", "--table", str(path)])
        assert (code, text) == (2, "")
        err = capsys.readouterr().err
        assert err.startswith("input error: level ") and err.count("\n") == 1, err


def _s5_with_value(tmp_path, character, cls, value):
    """The bundled s5 table written to tmp_path with one value replaced."""
    doc = fixtures.load_json("s5.json")
    chi = next(ch for ch in doc["characters"] if ch["name"] == character)
    chi["values"][cls] = value
    path = tmp_path / "s5.json"
    path.write_text(json.dumps(doc))
    return path


class TestVerdict:
    def test_monster_open_pairs_exit_1(self):
        code, text = run(["verdict", "--profile", "profile_monster"])
        assert code == 1
        assert "5*13, 7*11, 7*13, 11*13" in text

    def test_m11_settled_exit_0(self):
        code, text = run(["verdict", "--profile", "profile_m11"])
        assert code == 0
        assert "fully settled" in text

    def test_huge_spectrum_entry_answers(self, tmp_path):
        path = tmp_path / "profile.json"
        path.write_text(json.dumps({"name": "big", "order": str(10**30), "spectrum": [10**30]}))
        code, text = run(["verdict", "--profile", str(path)])
        assert code == 0 and "(2, 5): edge-in-group" in text

    def test_huge_prime_spectrum_entry_answers(self, tmp_path):
        p = 2**89 - 1  # prime, so only the complete factorizer closes the spectrum
        path = tmp_path / "profile.json"
        path.write_text(json.dumps({"name": "big", "order": str(2 * p), "spectrum": [p, 2]}))
        code, text = run(["verdict", "--profile", str(path)])
        assert code == 0 and f"(2, {p}): settled-by-theorem" in text

    def test_csv_format(self):
        code, text = run(["verdict", "--profile", "profile_thompson", "--format", "csv"])
        assert code == 1
        assert text.splitlines()[0] == "p,q,verdict"
        assert "5,7,open" in text


class TestTreeCheck:
    def test_valid_tree(self):
        code, text = run(["tree-check", "--tree", "tree_c21_p7"])
        assert code == 0 and "valid" in text

    def test_invalid_tree(self, tmp_path):
        doc = {
            "prime": 3,
            "vertices": [{"name": "a", "sign": 1}, {"name": "b", "sign": 1}],
            "edges": [["a", "b", "D0"]],
        }
        path = tmp_path / "bad_tree.json"
        path.write_text(json.dumps(doc))
        code, text = run(["tree-check", "--tree", str(path)])
        assert code == 1 and "equal signs" in text


class TestSieve:
    def test_cor13_census(self):
        code, text = run(["sieve", "--bound", "1000", "--condition", "cor13"])
        assert code == 0
        assert "124 of 168" in text

    def test_json_summary_keys(self):
        code, text = run(["sieve", "--bound", "500", "--condition", "cor13",
                          "--format", "json"])
        doc = json.loads(text)
        for key in ("count", "total_primes", "ratio", "li_x", "c_truncated"):
            assert key in doc

    def test_li_zero_at_bound_two(self):
        # Li(2) = 0: the text format prints a placeholder, JSON a null
        code, text = run(["sieve", "--bound", "2"])
        assert code == 0
        assert text.splitlines()[1] == "  ratio = 1.000000, Li(x) = 0.000000, count/Li = n/a"
        code, text = run(["sieve", "--bound", "2", "--format", "json"])
        assert code == 0 and json.loads(text)["count_over_li"] is None

    def test_csv_rows(self):
        code, text = run(["sieve", "--bound", "50", "--format", "csv"])
        lines = text.splitlines()
        assert lines[0] == "p,status,witness"
        assert len(lines) == 1 + 15  # 15 primes below 50

    def test_dual_check(self):
        code, _ = run(["sieve", "--bound", "300", "--condition", "thm51", "--dual"])
        assert code == 0

    def test_dual_disagreement_is_reported(self, monkeypatch, capsys):
        real = cli.numtheory.count_N
        calls = []

        def second_call_differs(*args, **kwargs):
            result = real(*args, **kwargs)
            calls.append(result)
            if len(calls) == 2:
                result.witness[0] = 0 if result.witness[0] else 5
            return result

        monkeypatch.setattr(cli.numtheory, "count_N", second_call_differs)
        code, text = run(["sieve", "--bound", "300", "--dual"])
        assert (code, text) == (1, "")
        assert capsys.readouterr().err == (
            "dual-path disagreement: phi-factor vs root-sieve at bound 300\n"
        )

    @pytest.mark.parametrize("argv, digest", [
        (["--format", "csv"],
         "84c683d4dfd579505ee546225dc0c45e826b2e11babcf971a414e0a6b0853543"),
        (["--format", "csv", "--method", "root-sieve"],
         "84c683d4dfd579505ee546225dc0c45e826b2e11babcf971a414e0a6b0853543"),
        (["--condition", "cor13", "--format", "csv"],
         "c8cd02ba5f7e5e71ad32ef01ad20f4e2dc786000642f066b0689f7ef37dd4a4d"),
        (["--format", "json"],
         "b3f7dedd762ffcc343b3d4dee09513af23a5147a6f5ab14dde842aa26fbfeaf1"),
        (["--dual"],
         "e845e653d363a5beb7ec37e9674fd3f354e113509dcf6b1ff5c9ec07d7348fde"),
        ([],
         "e845e653d363a5beb7ec37e9674fd3f354e113509dcf6b1ff5c9ec07d7348fde"),
        (["--method", "root-sieve"],
         "1130ab0126a5831aad5df42ded03c934817ca474733dddd33b2b4b2e8e99ca72"),
        (["--condition", "cor13"],
         "da859e1f671d444017a4a862498dcb313abb879c17c34c4223e8bc5c670e27d4"),
    ], ids=["csv", "csv-root-sieve", "cor13-csv", "json", "dual", "text", "text-root-sieve",
            "cor13-text"])
    def test_stdout_bytes_pinned_at_1e5(self, argv, digest):
        code, text = run(["sieve", "--bound", "100000", *argv])
        assert code == 0
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_full_product_is_no_method(self, capsys):
        # factoring the whole product is the tests' oracle, not a counting path
        code, text = run(["sieve", "--bound", "100", "--method", "full-F"])
        assert (code, text) == (2, "")
        assert "invalid choice: 'full-F'" in capsys.readouterr().err

    def test_root_sieve_csv_pinned_at_1e6(self):
        # the census workload's root-sieve bound: roots of unity by reciprocity
        # and the prime bitmap must leave every row as it was
        code, text = run(["sieve", "--bound", "1000000", "--method", "root-sieve",
                          "--format", "csv"])
        assert code == 0
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "e45ceee8d5b0f4507e1852b520207fdac54dfcfc345700b20429624cf1f259aa")

    def test_bound_past_int64_is_an_input_error(self, capsys):
        code, text = run(["sieve", "--bound", "3037000500"])
        assert (code, text) == (2, "")
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and err.count("\n") == 1

    def test_census_memory_stays_near_the_import(self):
        # the census lives in two int64 arrays (16 bytes a prime, 1.25 MB at
        # 1e6); one Python tuple per prime would add about 12 MB.  A child's
        # peak RSS includes what it inherits from the process that forked it,
        # so a small launcher forks each measured child, not this test process
        launcher = ("import os, subprocess, sys\n"
                    "proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)\n"
                    "_, status, usage = os.wait4(proc.pid, 0)\n"
                    "print(status, usage.ru_maxrss)")

        def peak_mb(*argv):
            proc = subprocess.run([sys.executable, "-c", launcher, sys.executable, *argv],
                                  env=_child_env(), capture_output=True, text=True, check=True)
            status, kb = map(int, proc.stdout.split())
            assert status == 0
            return kb / 1024

        base = peak_mb("-c", "import pgq.cli")
        root_sieve = peak_mb("-m", "pgq", "sieve", "--bound", "1000000", "--method", "root-sieve")
        assert root_sieve - base < 6, (base, root_sieve)
        # the default phi-factor at the census workload's heaviest bound: the
        # witness kernel's tables and cofactors must not set the peak
        phi_factor = peak_mb("-m", "pgq", "sieve", "--bound", "520000")
        assert phi_factor - base < 6, (base, phi_factor)

    def test_byte_stability_across_runs(self):
        _, a = run(["sieve", "--bound", "400", "--format", "csv"])
        _, b = run(["sieve", "--bound", "400", "--format", "csv"])
        assert a == b


class TestLie:
    def test_g2_q5(self):
        code, text = run(["lie", "--family", "G2", "--q", "5"])
        assert code == 0 and "settled" in text

    def test_not_settled(self):
        code, text = run(["lie", "--family", "PSp4", "--q", "32"])
        assert code == 1 and "not-settled-by-lemma" in text

    def test_non_prime_power_rejected(self):
        code, _ = run(["lie", "--family", "G2", "--q", "6"])
        assert code == 2

    @pytest.mark.parametrize("q", ["6", "1", "0", "-4"])
    def test_q_below_two_gets_the_same_message(self, capsys, q):
        code, text = run(["lie", "--family", "PSL4", "--q", q])
        assert (code, text) == (2, "")
        assert capsys.readouterr().err == f"input error: q = {q} is not a prime power\n"

    def test_json(self):
        code, text = run(["lie", "--family", "PSL4", "--q", "2", "--format", "json"])
        doc = json.loads(text)
        assert doc["order"] == "20160"

    # q = 2^5: c = alpha(5) = 5 divides q^2+1 = 1025, so the coprimality clause
    # decides PSL4, PSU4 and PSp4; the stdout digests pin every other key too
    @pytest.mark.parametrize("family, code, order, factors, breakdown, digest", [
        ("PSL4", 1, "37740850586690833612800",
         {"2": 30, "3": 2, "5": 2, "7": 1, "11": 2, "31": 3, "41": 1, "151": 1},
         {"q^6": "1073741824", "(q-1)^3": "29791", "(q+1)^2": "1089",
          "q^2+q+1": "1057", "q^2+1": "1025"},
         "703219611bb125e2e986843184e6da55dfacbe1022e696bbc6716da466114677"),
        ("PSU4", 1, "37743154175703357849600",
         {"2": 30, "3": 4, "5": 2, "11": 3, "31": 2, "41": 1, "331": 1},
         {"q^6": "1073741824", "(q-1)^2": "961", "(q+1)^3": "35937",
          "q^2+1": "1025", "q^2-q+1": "993"},
         "51344700636cfba3781a1ea396d281f85b4be930c1730f5c956453c38e069eeb"),
        ("PSp4", 1, "1124799322521600",
         {"2": 20, "3": 2, "5": 2, "11": 2, "31": 2, "41": 1},
         {"q^4": "1048576", "(q-1)^2": "961", "(q+1)^2": "1089", "q^2+1": "1025"},
         "66ea5b28aaeec2eacc7a0892bcbfecd00f717566b2664cf1f085fb4ee410040d"),
        ("PSp6", 0, "40525166440456910492724205977600",
         {"2": 45, "3": 4, "5": 2, "7": 1, "11": 3, "31": 3, "41": 1, "151": 1, "331": 1},
         {"q^9": "35184372088832", "(q-1)^3": "29791", "(q+1)^3": "35937",
          "q^2+q+1": "1057", "q^2+1": "1025", "q^2-q+1": "993"},
         "73aa650cb0d80a37ff2bd2cf34fa1c4d3fd385a38406f861ef0af48abee348ad"),
        ("POmega7", 0, "40525166440456910492724205977600",
         {"2": 45, "3": 4, "5": 2, "7": 1, "11": 3, "31": 3, "41": 1, "151": 1, "331": 1},
         {"q^9": "35184372088832", "(q-1)^3": "29791", "(q+1)^3": "35937",
          "q^2+q+1": "1057", "q^2+1": "1025", "q^2-q+1": "993"},
         "5ba55d0fd53516170e8b1430c17ff4a6f4abf7358e9543cae21677a18ad9f11e"),
        ("POmega8plus", 0, "1392432788285099374015554659384096194560000",
         {"2": 60, "3": 5, "5": 4, "7": 1, "11": 4, "31": 4, "41": 2, "151": 1, "331": 1},
         {"q^12": "1152921504606846976", "(q-1)^4": "923521", "(q+1)^4": "1185921",
          "q^2+q+1": "1057", "(q^2+1)^2": "1050625", "q^2-q+1": "993"},
         "3a5ef82cd9c1598a3140ce5391c09af5279b4ee8dfea3ebda2d51d6a91ab0571"),
        ("G2", 0, "1179438698114366570496",
         {"2": 30, "3": 3, "7": 1, "11": 2, "31": 2, "151": 1, "331": 1},
         {"q^6": "1073741824", "(q-1)^2": "961", "(q+1)^2": "1089",
          "q^2+q+1": "1057", "q^2-q+1": "993"},
         "c093e65d641b38dc9c5bcdbe413571ce42cd9df28ec9fa6bfc92903286f74182"),
    ])
    def test_json_bytes_pinned_at_q32(self, family, code, order, factors, breakdown, digest):
        got, text = run(["lie", "--family", family, "--q", "32", "--format", "json"])
        doc = json.loads(text)
        assert (got, doc["c"]) == (code, 5)
        assert (doc["order"], doc["order_factors"], doc["order_breakdown"]) == (
            order, factors, breakdown)
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestTableauxVerify:
    def test_all_lemmas_at_six(self):
        code, text = run(["tableaux-verify", "--max-boxes", "6"])
        assert code == 0
        assert text.count("0 violation(s)") == 4

    def test_single_lemma_json(self):
        code, text = run(["tableaux-verify", "--max-boxes", "5", "--lemma",
                          "full-rectangle", "--format", "json"])
        doc = json.loads(text)
        assert doc["full-rectangle"]["violations"] == []

    @pytest.mark.parametrize("lemma, fmt, digest", [
        ("small-branch", "text",
         "bb7992f7823551f3ea9e0e5608a1f633e472804a04c505e7fa5150ff549ebe7b"),
        ("small-branch", "json",
         "68870b8dd1b308740bed23c86032c0bd424cc12c6bcf6a5306f7154c07db8ddd"),
        ("full-rectangle", "text",
         "d6a8b1017fc67e37e93c5f75d2a5300f0373b557a0da3968e42163337a6116bd"),
        ("full-rectangle", "json",
         "9836e6ca933fdc4cafc25ec2469aa6e3eb0bfd5688ad5636483f8ded7d9a03a1"),
        ("columns-between-lines", "text",
         "a2fb808deb86fd9aa257409398d5587b229d56b94ec5a6b5090b0ef103d71e6b"),
        ("columns-between-lines", "json",
         "33c3593d6cfdad9817009b0ca8f2c8e7b20ef192e26e8b141e19e7c63da45114"),
        ("divided-tableau", "text",
         "1f3e058cf30f78517bda0a685c1295fdfd9c0786ffb0199e56ece8dd73d2603f"),
        ("divided-tableau", "json",
         "3abcea7a4a635ad45bd66cf692afdeda8bdd0084c8cdbe1bb755446291ebe792"),
    ])
    def test_stdout_bytes_pinned_at_ten(self, lemma, fmt, digest):
        code, text = run(["tableaux-verify", "--max-boxes", "10", "--lemma", lemma,
                          "--format", fmt])
        assert code == 0
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_all_lemmas_json_bytes_pinned_at_eight(self):
        code, text = run(["tableaux-verify", "--max-boxes", "8", "--format", "json"])
        assert code == 0
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "7e0a101de30510543295d979e46235fb014051cccc499aaf2d29705ba082fb47")


class TestSelftest:
    def test_battery_passes(self):
        code, text = run(["selftest"])
        assert code == 0
        assert text.endswith("selftest: all checks passed\n")

    def test_battery_runs_without_mpmath(self):
        # mpmath is a test dependency only: the Li oracle sums in decimal
        script = ("import io, sys; from pgq import cli; "
                  "code = cli.main(['selftest'], out=io.StringIO()); "
                  "print(code, 'mpmath' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", script], env=_child_env(),
                              capture_output=True, text=True)
        assert proc.stdout == "0 False\n", proc.stderr


def _child_env(unset=()):
    """The environment of a child `python` that imports this pgq, without the
    variables named in `unset`."""
    src = os.path.dirname(os.path.dirname(pgq.__file__))
    env = {k: v for k, v in os.environ.items() if k not in unset}
    return dict(env, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def test_python_dash_m_pgq_matches_main():
    argv = ["lie", "--family", "G2", "--q", "5"]
    proc = subprocess.run([sys.executable, "-m", "pgq", *argv], env=_child_env(),
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == run(argv)[1]


class TestBlasThreads:
    """pgq never calls BLAS, so it loads numpy with one OpenBLAS thread
    unless the user chose a thread count or numpy is already loaded."""

    VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

    def child(self, script, **env):
        proc = subprocess.run([sys.executable, "-c", script],
                              env=dict(_child_env(unset=self.VARS), **env),
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no /proc/self/task")
    def test_one_thread_and_the_environment_as_found(self):
        script = ("import os, pgq\n"
                  "print(len(os.listdir('/proc/self/task')), 'OPENBLAS_NUM_THREADS' in os.environ)")
        assert self.child(script) == "1 False\n"

    @pytest.mark.parametrize("var", VARS)
    def test_a_user_thread_count_is_honoured(self, var):
        script = ("import os, pgq\n"
                  f"print([(v, os.environ[v]) for v in {self.VARS!r} if v in os.environ])")
        assert self.child(script, **{var: "2"}) == f"[({var!r}, '2')]\n"

    def test_numpy_already_loaded_leaves_the_environment_alone(self):
        script = ("import os, numpy\n"
                  "class Spy(dict):\n"
                  "    def __setitem__(self, k, v): print('set', k)\n"
                  "    def __delitem__(self, k): print('del', k)\n"
                  "os.environ = Spy(os.environ)\n"
                  "import pgq\n"
                  "print('imported')")
        assert self.child(script) == "imported\n"


class TestHeapFreeze:
    """`main` moves the heap the imports left into the permanent generation
    once per process, so interpreter teardown does not traverse it; importing
    pgq freezes nothing, a heap the host froze is left as it is, and only the
    first command asks how much is frozen."""

    MAIN = ("import gc, io, pgq.cli\n"
            "def main():\n"
            "    pgq.cli.main(['lie', '--family', 'G2', '--q', '5'], io.StringIO())\n")

    def child(self, script):
        proc = subprocess.run([sys.executable, "-c", self.MAIN + script], env=_child_env(),
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def test_importing_freezes_nothing(self):
        assert self.child("import pgq\nprint(gc.get_freeze_count())") == "0\n"

    def test_main_freezes_and_keeps_the_collector(self):
        out = self.child("main()\nprint(gc.get_freeze_count() > 0, gc.isenabled())")
        assert out == "True True\n"

    def test_a_second_command_does_not_freeze_again(self):
        script = ("main()\n"
                  "first = gc.get_freeze_count()\n"
                  "kept = [[] for _ in range(1000)]\n"
                  "main()\n"
                  "print(gc.get_freeze_count() - first)")
        assert self.child(script) == "0\n"

    def test_only_the_first_command_asks_for_the_freeze_count(self):
        # gc.get_freeze_count walks the whole permanent generation
        script = ("asked = []\n"
                  "count = gc.get_freeze_count\n"
                  "gc.get_freeze_count = lambda: asked.append(1) or count()\n"
                  "main()\n"
                  "main()\n"
                  "gc.get_freeze_count = count\n"
                  "print(len(asked), gc.get_freeze_count() > 0)")
        assert self.child(script) == "1 True\n"

    def test_a_host_frozen_heap_is_left_as_it_is(self):
        script = ("gc.freeze()\n"
                  "frozen = gc.get_freeze_count()\n"
                  "kept = [[] for _ in range(1000)]\n"
                  "main()\n"
                  "print(gc.get_freeze_count() - frozen)")
        assert self.child(script) == "0\n"


class TestErrors:
    def test_malformed_json_reports_position(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"prime": 3,\n  "vertices": [}')
        code, _ = run(["tree-check", "--tree", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "line 2" in err and "column" in err

    def test_missing_file(self):
        code, _ = run(["verdict", "--profile", "no_such_profile"])
        assert code == 2

    @pytest.mark.parametrize("argv", [["help-check", "--order", "2", "--table"],
                                      ["tree-check", "--tree"], ["verdict", "--profile"]],
                             ids=["table", "tree", "profile"])
    def test_unreadable_path_is_an_input_error(self, tmp_path, capsys, argv):
        code, text = run([*argv, str(tmp_path)])  # the directory exists but cannot be read
        assert (code, text) == (2, "")
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("doc", [
        {"name": "M11", "order": None, "spectrum": [1, 2, 3, 4, 5, 6, 8, 11]},
        {"name": "M11", "order": "7920", "spectrum": "123"},
        [1, 2, 3],
    ], ids=["null-order", "string-spectrum", "top-level-array"])
    def test_malformed_profile_is_an_input_error(self, tmp_path, capsys, doc):
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(doc))
        code, text = run(["verdict", "--profile", str(path)])
        assert (code, text) == (2, "")
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("path, value, field", [
        (("classes", 1, "powers", "x"), "1a", "power map key"),
        (("characters", 0, "values", "2a"), {"n": 1, "coeffs": {"x": "1"}},
         "cyclotomic exponent"),
        (("characters", 0, "values", "2a"), "1 @ x", "cyclotomic level"),
    ], ids=["power-map-key", "cyclotomic-exponent", "cyclotomic-level"])
    def test_non_integer_field_is_named(self, tmp_path, capsys, path, value, field):
        doc = fixtures.load_json("s5")
        *parents, key = path
        target = functools.reduce(lambda node, k: node[k], parents, doc)
        target[key] = value
        table = tmp_path / "table.json"
        table.write_text(json.dumps(doc))
        code, text = run(["help-check", "--table", str(table), "--order", "2"])
        assert (code, text) == (2, "")
        err = capsys.readouterr().err
        assert err == f"input error: {field} must be an integer, got 'x'\n"

    @pytest.mark.parametrize("argv, message", [
        (["help-check", "--table", "thompson", "--order", "2"], "no class of order 2"),
        (["help-check", "--table", "thompson", "--order", "10"], "no class of order 2"),
        (["help-check", "--table", "s5", "--order", "6", "--characters", "nope"],
         "no character named 'nope' in S5"),
        (["help-check", "--table", "onan", "--order", "21", "--characters", "x"],
         "--characters needs a character table"),
        (["help-check", "--table", "s5", "--order", "6", "--characters="],
         "no character named '' in S5"),
        (["help-check", "--table", "onan", "--order", "21", "--characters="],
         "--characters needs a character table"),
        (["tableaux-verify", "--max-boxes", "0"], "--max-boxes must be at least 1"),
        (["tableaux-verify", "--max-boxes", "-1"], "--max-boxes must be at least 1"),
    ], ids=["thompson-2", "thompson-10", "unknown-character", "characters-on-rows",
            "empty-characters", "empty-characters-on-rows", "max-boxes-0", "max-boxes--1"])
    def test_query_outside_the_contract_is_an_input_error(self, capsys, argv, message):
        code, text = run(argv)
        assert (code, text) == (2, "")
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and err.count("\n") == 1
        assert message in err

    def test_unknown_subcommand(self):
        code, _ = run(["frobnicate"])
        assert code == 2


#: the command-line block of README.md: (argv, exit code, stdout sha256)
README_COMMANDS = [
    ("help-check --table thompson --order 35", 0,
     "7a602245185994ded608b1941bd401be8bc6a68a49e439011bcc16b2dc55c3e9"),
    ("help-check --table onan --order 21", 1,
     "a5ff4c531927ef93c4cb31dfecd3f78a472ffd8b66d19b55085ed8d6a37e5485"),
    ("verdict --profile profile_monster", 1,
     "387b9d52d2356dfd5115eba122ccc8e2d2c47cbedacaf67c1e9d03ffe349e7f5"),
    ("tree-check --tree tree_s5_p5", 0,
     "96289a9a93d12165dd817e551f909ae8275eb3ff002ed3c826cc120b42787ed8"),
    ("sieve --bound 1000 --condition cor13", 0,
     "c3df8af847ee8c804e10ad12e803e82301c9e0e8f58f49c65ceece971851a1c7"),
    ("sieve --bound 100000 --dual --format json", 0,
     "b3f7dedd762ffcc343b3d4dee09513af23a5147a6f5ab14dde842aa26fbfeaf1"),
    ("lie --family G2 --q 5", 0,
     "b70469f32846734cf148ce5598888f9a62db183a168cf0c904c24353275623ea"),
    ("tableaux-verify --max-boxes 8", 0,
     "96750c99775b149ce572cf4d96dbc1f7568ad17f54debebf70f9c36cc9fd32b4"),
    ("selftest", 0, "b0d270719768503f6ef6453fb5b3b598bd7e1d6a6fbf514556e0ed87395e2249"),
]


class TestArguments:
    """argv is read against `cli.COMMANDS`: exact long flags, one
    `input error:` line and exit 2 for anything else."""

    def test_readme_lists_the_pinned_commands(self):
        readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                              "README.md")
        with open(readme) as fh:
            block = fh.read().split("## Command line\n\n```sh\n", 1)[1].split("```", 1)[0]
        listed = [" ".join(line.split("#")[0].split()[1:]) for line in block.splitlines()]
        assert listed == [argv for argv, _, _ in README_COMMANDS]

    @pytest.mark.parametrize("argv, code, digest", README_COMMANDS,
                             ids=[argv for argv, _, _ in README_COMMANDS])
    def test_readme_command_bytes_pinned(self, argv, code, digest):
        exit_code, text = run(argv.split())
        assert exit_code == code
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("argv, message", [
        (["lie", "--family", "E8", "--q", "5"], "argument --family: invalid choice: 'E8'"),
        (["lie", "--family", "G2", "--q", "x"], "argument --q: invalid int value: 'x'"),
        (["sieve"], "the following arguments are required: --bound"),
        (["sieve", "--bound", "100", "--sieve"], "no argument '--sieve'"),
        (["frobnicate"], "unknown command 'frobnicate'"),
        (["sieve", "--bou", "100"], "no argument '--bou'"),
        ([], "no command given"),
        (["sieve", "--bound"], "argument --bound: expected one argument"),
        (["sieve", "--bound", "100", "--dual=yes"], "argument --dual: takes no value"),
        (["sieve", "--bound", "100", "7"], "no argument '7'"),
    ], ids=["bad-choice", "bad-int", "missing-required", "unknown-flag", "unknown-command",
            "abbreviated-flag", "no-command", "missing-value", "switch-with-value",
            "stray-value"])
    def test_bad_argument_is_one_input_error_line(self, capsys, argv, message):
        code, text = run(argv)
        assert (code, text) == (2, "")
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and err.count("\n") == 1, err
        assert message in err

    def test_equals_form_and_negative_values(self):
        assert run(["sieve", "--bound=1000", "--condition=cor13"]) == run(
            ["sieve", "--bound", "1000", "--condition", "cor13"])
        # a value may start with "-" when it is a number; --max-boxes then refuses it
        assert run(["tableaux-verify", "--max-boxes", "-1"])[0] == 2

    @pytest.mark.parametrize("argv, first", [
        (["--help"], "usage: pgq COMMAND [FLAGS]\n"),
        (["-h"], "usage: pgq COMMAND [FLAGS]\n"),
        (["sieve", "--help"], "usage: pgq sieve [FLAGS]\n"),
        (["lie", "--family", "G2", "-h"], "usage: pgq lie [FLAGS]\n"),
    ], ids=["help", "h", "sieve-help", "lie-h"])
    def test_help_exits_0(self, argv, first):
        code, text = run(argv)
        assert code == 0 and text.startswith(first)

    def test_command_help_lists_every_flag(self):
        for command, (_, flags) in cli.COMMANDS.items():
            text = run([command, "--help"])[1]
            assert all(f"  {flag}" in text for flag in flags), command

    def test_import_loads_no_argparse(self):
        """`import pgq.cli` loads neither argparse nor dataclasses: the command
        line is read from `COMMANDS`, and pgq's records are plain classes."""
        proc = subprocess.run([sys.executable, "-c", "import sys, pgq.cli; "
                               "print(sorted({'argparse', 'dataclasses'} & set(sys.modules)))"],
                              env=_child_env(), capture_output=True, text=True, check=True)
        assert proc.stdout == "[]\n"


BUNDLED = {name[:-len(".json")]: fixtures.load_json(name) for name in fixtures.available()}

#: what a fuzzed top-level field is replaced with
JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=6),
                         st.floats(allow_nan=False, allow_infinity=False))
REPLACEMENTS = st.one_of(st.none(), st.text(max_size=6), st.lists(JSON_SCALARS, max_size=3),
                         st.just(0), st.integers(max_value=-1))


def run_with_field(directory, name, field, value, order=2):
    """Run a cheap subcommand on the bundled document `name` with one
    top-level field replaced; returns (exit code, stdout, stderr)."""
    return run_document(directory, name, dict(BUNDLED[name], **{field: value}), order)


def run_document(directory, name, doc, order=2):
    """Run a cheap subcommand on `doc` in place of the bundled document
    `name`; returns (exit code, stdout, stderr)."""
    path = str(directory / f"{name}.json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    if name.startswith("tree_"):
        argv = ["tree-check", "--tree", path]
    elif name.startswith("profile_"):
        argv = ["verdict", "--profile", path]
    else:
        # a rows fixture answers only its own unit order, which is cheap
        order = BUNDLED[name].get("unit_order", order)
        argv = ["help-check", "--table", path, "--order", str(order)]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, text = run(argv)
    return code, text, err.getvalue()


def assert_contract(code, text, err):
    assert code in (0, 1, 2)
    if code == 2:
        assert text == ""
        assert err.startswith("input error: ") and err.count("\n") == 1, err


class TestMalformedDocuments:
    @pytest.mark.parametrize("name, field, value", [
        ("tree_s5_p3", "prime", None),
        ("tree_s5_p3", "vertices", [None]),
        ("tree_c21_p7", "exceptional", "exc"),
        ("s5", "classes", "abc"),
        ("s5", "characters", [1]),
        ("s5", "characters", [{"name": "chi", "degree": 1, "values": {"1a": None}}]),
        ("s5", "characters", [{"name": "chi", "degree": 1,
                                "values": {"1a": {"n": None, "coeffs": {}}}}]),
        ("s5", "order", None),
        ("onan", "modulus", 0),
        ("onan", "modulus", -21),
        ("onan", "rows", [[1]]),
        ("onan", "rows", []),
        ("profile_m11", "spectrum", [10**30]),
        # two characters named std: the constraints are keyed by character name
        ("s5", "characters", [dict(ch, name="std") if ch["name"] == "sgn" else ch
                              for ch in BUNDLED["s5"]["characters"]]),
        # 1/2 is no algebraic integer, so no character takes it as a value
        ("s5", "characters", [dict(ch, values=dict(ch["values"], **{"2a": "1/2"}))
                              if ch["name"] == "std" else ch
                              for ch in BUNDLED["s5"]["characters"]]),
        # power-map keys are primes: 0 would divide by zero, 4 is no prime
        ("s5", "classes", [dict(c, powers={"0": "1a"}) if c["name"] == "2a" else c
                           for c in BUNDLED["s5"]["classes"]]),
        ("s5", "classes", [dict(c, powers={**c["powers"], "4": "2a"}) if c["name"] == "2a"
                           else c for c in BUNDLED["s5"]["classes"]]),
        # a zero denominator, in either encoding of a cyclotomic number
        ("s5", "characters", [dict(ch, values=dict(ch["values"], **{"2a": "1/0 @ 2"}))
                              if ch["name"] == "std" else ch
                              for ch in BUNDLED["s5"]["characters"]]),
        ("s5", "characters", [dict(ch, values=dict(ch["values"],
                                                   **{"2a": {"n": 2, "coeffs": {"0": "1/0"}}}))
                              if ch["name"] == "std" else ch
                              for ch in BUNDLED["s5"]["characters"]]),
        # JSON true is a Python int, yet no cyclotomic number; nor may it
        # reuse the element parsed for a JSON 1, which it hashes alike
        ("s5", "characters", [dict(ch, values={c: True for c in ch["values"]})
                              if ch["name"] == "triv" else ch
                              for ch in BUNDLED["s5"]["characters"]]),
        ("s5", "characters", [dict(ch, values={c: 1 for c in ch["values"]})
                              if ch["name"] == "triv" else
                              dict(ch, values=dict(ch["values"], **{"2a": True}))
                              if ch["name"] == "sgn" else ch
                              for ch in BUNDLED["s5"]["characters"]]),
    ])
    def test_malformed_field_is_an_input_error(self, tmp_path, name, field, value):
        code, text, err = run_with_field(tmp_path, name, field, value)
        assert code == 2
        assert_contract(code, text, err)

    @pytest.mark.parametrize("order", [2, 3])
    def test_value_on_no_class_is_named(self, tmp_path, order):
        # sgn's value on 2a filed under 2z: rejected at load, whether or not
        # the query would read 2a, and the message names 2z
        doc = json.loads(json.dumps(BUNDLED["s5"]))
        values = next(ch for ch in doc["characters"] if ch["name"] == "sgn")["values"]
        values["2z"] = values.pop("2a")
        code, text, err = run_document(tmp_path, "s5", doc, order)
        assert (code, text) == (2, "")
        assert err == ("input error: character sgn has a value on '2z', "
                       "which is no class of the slice\n")

    def test_missing_value_is_printed_bare(self, tmp_path):
        # sgn has no value on 2a: the query at order 2 reads it, and the
        # KeyError's message is printed without the quotes of its repr
        doc = json.loads(json.dumps(BUNDLED["s5"]))
        del next(ch for ch in doc["characters"] if ch["name"] == "sgn")["values"]["2a"]
        code, text, err = run_document(tmp_path, "s5", doc, 2)
        assert (code, text) == (2, "")
        assert err == "input error: character sgn has no value on class 2a\n"

    @pytest.mark.parametrize("name, path, what", [
        ("s5", ("characters",), "characters"),
        ("s5", ("classes", 1, "name"), "class name"),
        ("s5", ("characters", 2, "values"), "character values"),
        ("onan", ("modulus",), "modulus"),
        ("onan", ("unit_order",), "unit_order"),
        ("tree_s5_p3", ("vertices",), "tree vertices"),
        ("tree_s5_p3", ("vertices", 0, "sign"), "vertex sign"),
        ("tree_c21_p7", ("exceptional", "t"), "exceptional t"),
        ("profile_m11", ("spectrum",), "profile spectrum"),
        ("profile_m11", ("name",), "profile name"),
    ])
    def test_missing_field_is_named(self, tmp_path, name, path, what):
        doc = json.loads(json.dumps(BUNDLED[name]))
        *parents, key = path
        del functools.reduce(lambda node, k: node[k], parents, doc)[key]
        code, text, err = run_document(tmp_path, name, doc)
        assert (code, text) == (2, "")
        assert err == f"input error: missing field {key!r} ({what})\n"

    @pytest.mark.parametrize("value, key, what", [
        ({"coeffs": {"0": "1"}}, "n", "cyclotomic level n"),
        ({"n": 2}, "coeffs", "cyclotomic coeffs"),
    ])
    def test_missing_cyclotomic_field_is_named(self, tmp_path, value, key, what):
        doc = json.loads(json.dumps(BUNDLED["s5"]))
        doc["characters"][0]["values"]["2a"] = value
        code, text, err = run_document(tmp_path, "s5", doc)
        assert (code, text) == (2, "")
        assert err == f"input error: missing field {key!r} ({what})\n"

    @pytest.mark.parametrize("name", sorted(BUNDLED))
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_fuzzed_top_level_field_never_escapes(self, tmp_path_factory, name, data):
        field = data.draw(st.sampled_from(sorted(BUNDLED[name])), label="field")
        value = data.draw(REPLACEMENTS, label="value")
        order = data.draw(st.sampled_from((2, 3)), label="order")
        directory = tmp_path_factory.mktemp("fuzz", numbered=True)
        assert_contract(*run_with_field(directory, name, field, value, order))
