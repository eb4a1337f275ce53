import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import weylchar
from weylchar.cli import _encode, main
from weylchar.exact import QQi

# sha256 of the stdout of each README command, keyed by the command verbatim.
PINNED_STDOUT = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "pinned.json").read_text()
)["cli_stdout_sha256"]


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out.strip() else None
    return code, payload, captured.err


def test_char_example(capsys):
    code, payload, _ = run_cli(capsys, ["char", "--sig", "1,0,0,-1", "--u", "0.25,0,0,0"])
    assert code == 0
    assert payload["dim"] == 15
    assert payload["trace_exact"] == ["9", "0"]


def test_char_quarter_turns_print_the_exact_value(capsys):
    # One exact evaluation feeds every field, so no float rounding noise shows.
    code, payload, _ = run_cli(capsys, ["char", "--sig", "1,0,-1", "--u", "0,1/4,1/2"])
    assert code == 0
    assert payload["trace_exact"] == ["0", "0"]
    assert payload["trace"] == [0.0, 0.0]
    assert payload["normalized"] == [0.0, 0.0]


def test_char_trivial(capsys):
    code, payload, _ = run_cli(capsys, ["char", "--sig", "0,0", "--u", "0,0"])
    assert code == 0
    assert payload["normalized"] == [1.0, 0.0]


def test_char_float_spectrum_carries_its_error_bound(capsys):
    code, payload, _ = run_cli(capsys, ["char", "--sig", "1,0,-1", "--u", "37/100,1/10,9/10"])
    assert code == 0
    assert "trace_exact" not in payload
    assert 0 < payload["error_bound"] < 1e-12


def test_poisson_series_nan_trace_is_a_usage_error(capsys):
    code, payload, err = run_cli(
        capsys, ["poisson", "--series-n", "2", "--kernel-a", "1", "--tau", "nan,0"])
    assert code == 2 and payload is None
    assert "unit disk" in err


def test_char_malformed_signature(capsys):
    code, _, err = run_cli(capsys, ["char", "--sig", "1,2", "--u", "0,0"])
    assert code == 2
    assert "error" in err


def test_usage_error_exit_code(capsys):
    assert main(["char"]) == 2
    capsys.readouterr()
    assert main(["no-such-command"]) == 2
    capsys.readouterr()


def test_branch_tensor(capsys):
    code, payload, _ = run_cli(
        capsys, ["branch", "--op", "tensor", "--sig1", "1,0", "--sig2", "1,0"]
    )
    assert code == 0
    sigs = [tuple(c["signature"]["entries"]) for c in payload["components"]]
    assert sigs == [(1, 1), (2, 0)]
    assert payload["inequalities_hold"] is True


def test_branch_restrict(capsys):
    code, payload, _ = run_cli(
        capsys, ["branch", "--op", "restrict", "--sig", "1,0,-1", "--d1", "1", "--d2", "2"]
    )
    assert code == 0
    assert payload["total_dim"] == 8
    assert len(payload["components"]) == 4


def test_branch_restrict_at_d_2000(capsys):
    # {1;2,1} shifts to a partition with 1,999 rows, deeper than the
    # interpreter's recursion limit: the branching walks must not recurse per
    # row or per cell.
    sig = ",".join(["2", "1"] + ["0"] * 1997 + ["-1"])
    code, payload, _ = run_cli(
        capsys,
        ["branch", "--op", "restrict", "--sig", sig, "--d1", "1000", "--d2", "1000",
         "--dim-budget", str(10**18)],
    )
    assert code == 0
    assert len(payload["components"]) == 17
    assert payload["total_dim"] == 5333328000000
    assert payload["inequalities_hold"] is True


def test_branch_budget_exit_code(capsys):
    code, _, err = run_cli(
        capsys,
        ["branch", "--op", "tensor", "--sig1", "4,0,0,-4", "--sig2", "4,0,0,-4",
         "--dim-budget", "10"],
    )
    assert code == 3
    assert "budget" in err


def test_broken_invariant_exit_code(capsys, monkeypatch):
    from weylchar import ucharacters

    # A skew expansion that drops every term breaks the restriction's
    # dimension check: an internal bug, told apart from a usage error.
    monkeypatch.setattr(ucharacters, "skew_expand", lambda nu, alpha, max_length: {})
    code, payload, err = run_cli(
        capsys, ["branch", "--op", "restrict", "--sig", "1,0,-1", "--d1", "1", "--d2", "2"]
    )
    assert code == 4
    assert payload is None
    assert "branching bug" in err


def test_moments_example(capsys):
    code, payload, _ = run_cli(capsys, ["moments", "--sig", "1,0,0,0", "--r", "4"])
    assert code == 0
    assert payload["m2"] == "1/1" and payload["m4"] == "1/1"
    assert payload["equal"] is True and payload["estimate_holds"] is True


def test_moments_zero(capsys):
    code, payload, _ = run_cli(capsys, ["moments", "--sig", "0,0,0,0", "--r", "4"])
    assert code == 0
    assert payload["m2"] == "0/1" and payload["m4"] == "0/1"


def test_moments_sweep_small(capsys):
    code, payload, _ = run_cli(
        capsys, ["moments", "--sweep", "--dmax", "4", "--entry-bound", "1"]
    )
    assert code == 0
    assert payload["failures"] == 0 and payload["checked"] > 0


def test_hciz_power(capsys):
    code, payload, _ = run_cli(
        capsys, ["hciz", "--d", "3", "--n", "2", "--samples", "20000", "--seed", "7"]
    )
    assert code == 0
    assert payload["pass"] is True


def test_hciz_exp_mode(capsys):
    code, payload, _ = run_cli(
        capsys,
        ["hciz", "--d", "2", "--mode", "exp", "--samples", "20000", "--seed", "7",
         "--a", "1,-1", "--b", "1,-1"],
    )
    assert code == 0
    assert payload["pass"] is True


def test_hciz_deterministic_bytes(capsys):
    argv = ["hciz", "--d", "3", "--n", "2", "--samples", "5000", "--seed", "11"]
    main(argv)
    out1 = capsys.readouterr().out
    main(argv)
    out2 = capsys.readouterr().out
    assert out1 == out2


def test_seed_env_override(capsys, monkeypatch):
    argv = ["hciz", "--d", "3", "--n", "2", "--samples", "5000", "--seed", "1"]
    monkeypatch.setenv("WEYLCHAR_SEED", "11")
    main(argv)
    out_env = capsys.readouterr().out
    monkeypatch.delenv("WEYLCHAR_SEED")
    main(["hciz", "--d", "3", "--n", "2", "--samples", "5000", "--seed", "11"])
    out_direct = capsys.readouterr().out
    assert out_env == out_direct


def test_ergodic_example(capsys):
    code, payload, _ = run_cli(
        capsys,
        ["ergodic", "--diagram", "car", "--lam", "1", "--mu", "1", "--u", "0.25,0",
         "--nmax", "6"],
    )
    assert code == 0
    assert payload["limit"] == [0.5, 0.0]
    assert 1.8 <= payload["rate"] <= 2.2
    assert payload["dims"] == [2, 4, 8, 16, 32, 64]


def test_ergodic_trivial(capsys):
    code, payload, _ = run_cli(
        capsys, ["ergodic", "--diagram", "car", "--lam", "", "--mu", "", "--u", "0.25,0"]
    )
    assert code == 0
    assert all(v == [1.0, 0.0] for v in payload["values"])


def test_ergodic_unknown_diagram(capsys):
    code, _, err = run_cli(capsys, ["ergodic", "--diagram", "mystery", "--u", "0,0"])
    assert code == 2


def test_schur_weyl_example(capsys):
    code, payload, _ = run_cli(capsys, ["schur-weyl", "--n", "3", "--p", "1", "--q", "1"])
    assert code == 0
    assert payload["defect"] == "1/64"


def test_poisson_stirling(capsys):
    code, payload, _ = run_cli(capsys, ["poisson", "--stirling", "4"])
    assert code == 0
    assert payload["stirling"]["closed_form"] == "61/3"


def test_poisson_tv(capsys):
    code, payload, _ = run_cli(capsys, ["poisson", "--tv-a", "1", "--tv-k", "100"])
    assert code == 0
    assert payload["tv_bound"] < 0.09


def test_poisson_kstep(capsys):
    code, payload, _ = run_cli(
        capsys, ["poisson", "--kstep-k", "2", "--kernel-a", "1", "--truncation", "35"]
    )
    assert code == 0
    assert payload["kstep"]["passed"] is True


def test_poisson_series(capsys):
    code, payload, _ = run_cli(
        capsys,
        ["poisson", "--series-n", "2", "--kernel-a", "1", "--tau", "0.5,0.5"],
    )
    assert code == 0
    assert payload["series"]["passed"] is True


def test_validate_diagram_presets(capsys):
    code, payload, _ = run_cli(capsys, ["validate-diagram", "--diagram", "car"])
    assert code == 0 and payload["valid"] is True
    code2, payload2, _ = run_cli(
        capsys, ["validate-diagram", "--diagram", "gicar-excluded", "--depth", "5"]
    )
    assert code2 == 0 and payload2["primitive_within_depth"] is False


def test_validate_diagram_file(tmp_path, capsys):
    from weylchar.afalgebra import preset_diagram

    path = tmp_path / "diagram.json"
    path.write_text(json.dumps(preset_diagram("effros-shen").to_json()))
    code, payload, _ = run_cli(capsys, ["validate-diagram", "--file", str(path)])
    assert code == 0 and payload["valid"] is True


@pytest.mark.parametrize(
    "extra, named",
    [
        (["--file", "{file}", "--depth", "2"], "--depth"),
        (["--file", "{file}", "--depth", "9"], "--depth"),
        (["--diagram", "car", "--depth", "0"], "argument --depth"),
        (["--diagram", "car", "--depth", "-3"], "argument --depth"),
        (["--diagram", "effros-shen", "--depth", "x"], "argument --depth"),
    ],
)
def test_validate_diagram_rejects_misused_depth(tmp_path, capsys, extra, named):
    from weylchar.afalgebra import preset_diagram

    path = tmp_path / "car7.json"
    path.write_text(json.dumps(preset_diagram("car", depth=7).to_json()))
    argv = ["validate-diagram"] + [a.format(file=path) for a in extra]
    code, payload, err = run_cli(capsys, argv)
    assert code == 2 and payload is None
    assert named in err and "Traceback" not in err


def test_validate_diagram_depth_is_the_preset_depth(capsys):
    for depth in (1, 3, 8):
        code, payload, _ = run_cli(
            capsys, ["validate-diagram", "--diagram", "car", "--depth", str(depth)]
        )
        assert code == 0 and len(payload["min_dims"]) == depth + 1


def test_output_file_option(tmp_path, capsys):
    out = tmp_path / "result.json"
    code = main(["schur-weyl", "--n", "2", "--p", "1", "--q", "1", "--output", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == ""
    assert json.loads(out.read_text())["defect"] == "1/16"


def test_budget_flags_reject_zero(capsys):
    cases = (
        ["branch", "--op", "restrict", "--sig", "1,0,-1", "--d1", "1", "--d2", "2", "--dim-budget", "0"],
        ["poisson", "--stirling", "4", "--truncation", "0"],
        ["hciz", "--d", "3", "--samples", "0"],
        ["validate-diagram", "--diagram", "car", "--depth", "0"],
    )
    for argv in cases:
        code, payload, err = run_cli(capsys, argv)
        assert code == 2 and payload is None, argv
        flag = argv[-2]
        assert f"error: argument {flag}: must be a positive integer, got 0\n" in err, argv


@pytest.mark.parametrize(
    "argv, missing",
    [
        (["validate-diagram"], "--diagram --file"),
        (["branch", "--op", "tensor", "--sig1", "1,0"], "--sig2"),
        (["branch", "--op", "restrict", "--sig", "1,0,-1"], "--d1, --d2"),
        (["moments", "--r", "2"], "--sig"),
        (["moments", "--sig", "1,0,0,-1"], "--r"),
        (["poisson"], "--stirling --tv-a --kstep-k --series-n"),
        (["poisson", "--stirling", "4", "--tv-a", "1"],
         "--tv-a: not allowed with argument --stirling"),
    ],
)
def test_missing_mode_flag_is_a_usage_error(capsys, argv, missing):
    code, payload, err = run_cli(capsys, argv)
    assert code == 2 and payload is None
    assert missing in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, stray",
    [
        pytest.param(["poisson", "--stirling", "4", "--kernel-a", "2", "--tau", "0.5"],
                     "--kernel-a, --tau", id="stirling-kernel"),
        pytest.param(["poisson", "--kstep-k", "2", "--tv-k", "5", "--kernel-b", "3"],
                     "--tv-k, --kernel-b", id="kstep-tv-conjugate"),
        pytest.param(["branch", "--op", "tensor", "--sig1", "1,0", "--sig2", "1,0", "--d1", "4",
                      "--sig", "9"], "--sig, --d1", id="tensor-restrict-flags"),
        pytest.param(["moments", "--sweep", "--sig", "1,0", "--r", "2"], "--sig, --r",
                     id="sweep-single-flags"),
        # Given at its default value, a flag the mode does not read is still refused.
        pytest.param(["poisson", "--stirling", "4", "--truncation", "60"], "--truncation",
                     id="stirling-default-truncation"),
    ],
)
def test_a_flag_the_mode_does_not_read_is_a_usage_error(capsys, argv, stray):
    code, payload, err = run_cli(capsys, argv)
    assert code == 2 and payload is None
    assert err.startswith("error: ") and err.count("\n") == 1
    assert err.endswith(f" does not read {stray}\n")


@pytest.mark.parametrize(
    "argv, file_data",
    [
        pytest.param(["ergodic", "--u", "0.25,0", "--level", "20"], None, id="ergodic-level"),
        pytest.param(["ergodic", "--u", "0.25,0", "--block", "5"], None, id="ergodic-block"),
        pytest.param(["poisson", "--series-n", "1", "--kernel-a", "1", "--tau", "1,2,3"], None,
                     id="poisson-tau"),
        pytest.param(["validate-diagram", "--file"], {"levels": [[1], [2]]}, id="file-no-mults"),
        pytest.param(["validate-diagram", "--file"], {"levels": 1, "multiplicities": []},
                     id="file-int-levels"),
        pytest.param(["validate-diagram", "--file"], [1, 2], id="file-list"),
        pytest.param(["validate-diagram", "--file"],
                     {"levels": [[1], [2.7]], "multiplicities": [[[2.9]]]}, id="file-floats"),
        pytest.param(["validate-diagram", "--file"],
                     {"levels": [[1], [2.5]], "multiplicities": [[[2]]]}, id="file-float-level"),
    ],
)
def test_malformed_input_is_a_usage_error(tmp_path, capsys, argv, file_data):
    # Exit 1 would read as a failed check, so bad input must exit 2 with one line.
    if file_data is not None:
        path = tmp_path / "diagram.json"
        path.write_text(json.dumps(file_data))
        argv = argv + [str(path)]
    code, payload, err = run_cli(capsys, argv)
    assert code == 2 and payload is None
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(["moments", "--sweep", "--dmax", "3"], "needs --dmax >= 4, got 3",
                     id="sweep-dmax"),
        pytest.param(["moments", "--sweep", "--entry-bound", "-1"],
                     "needs --entry-bound >= 0, got -1", id="sweep-entry-bound"),
        pytest.param(["schur-weyl", "--n", "3", "--p", "-1", "--q", "1"],
                     "must be nonnegative, got 3, -1, 1", id="schur-weyl-negative"),
        pytest.param(["ergodic", "--diagram", "car", "--lam", "1", "--mu", "1", "--u", "0.25,0",
                      "--nmax", "0"], "n_max 0 is below the level 1 of u", id="ergodic-nmax"),
    ],
)
def test_a_check_of_nothing_is_a_usage_error(capsys, argv, message):
    # A check over an empty range would pass having checked nothing.
    code, payload, err = run_cli(capsys, argv)
    assert code == 2 and payload is None
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize(
    "file_data, message",
    [
        ({"levels": [[]], "multiplicities": []}, "error: level 0 has no blocks\n"),
        ({"levels": [[1], []], "multiplicities": [[]]}, "error: level 1 has no blocks\n"),
    ],
)
def test_a_diagram_level_with_no_blocks_is_named(tmp_path, capsys, file_data, message):
    path = tmp_path / "diagram.json"
    path.write_text(json.dumps(file_data))
    code, payload, err = run_cli(capsys, ["validate-diagram", "--file", str(path)])
    assert code == 2 and payload is None
    assert err == message


def test_validate_diagram_invalid_file_exit_code(tmp_path, capsys):
    bad = {"name": "broken", "levels": [[1], [3]], "multiplicities": [[[2]]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, payload, _ = run_cli(capsys, ["validate-diagram", "--file", str(path)])
    assert code == 1
    assert payload["valid"] is False


def test_moments_reports_moment_ratio(capsys):
    code, payload, _ = run_cli(capsys, ["moments", "--sig", "1,0,0,-1", "--r", "4"])
    assert code == 0
    assert payload["m4_over_m2_sq"] == "15/8"


def test_ergodic_dim_budget_flag(capsys):
    argv = ["ergodic", "--diagram", "car", "--lam", "2", "--mu", "1", "--u", "0.25,0",
            "--nmax", "11"]
    code, payload, err = run_cli(capsys, argv)
    assert code == 3 and payload is None
    assert "budget" in err
    code, payload, _ = run_cli(capsys, argv + ["--dim-budget", "100000000000"])
    assert code == 0
    assert payload["dims"][-1] == 2048


# Commands that need no numpy: every README command but the two hciz runs and
# ergodic, and char at quarter turns and at a float spectrum.
NUMPY_FREE_COMMANDS = (
    "char --sig 1,0,0,-1 --u 0.25,0,0,0",
    "char --sig 1,0,-1 --u 0,1/4,1/2",
    "char --sig 1,0,-1 --u 37/100,1/10,9/10",
    "branch --op restrict --sig 1,0,-1 --d1 1 --d2 2",
    "branch --op tensor --sig1 1,0,-1 --sig2 1,0,-1",
    "moments --sig 1,0,0,0 --r 4",
    "moments --sweep --dmax 5",
    "schur-weyl --n 3 --p 1 --q 1",
    "poisson --stirling 4",
    "poisson --tv-a 1 --tv-k 100",
    "poisson --kstep-k 2 --kernel-a 1",
    "validate-diagram --diagram effros-shen",
)


def _child_env() -> dict[str, str]:
    """The environment with this checkout's package first on PYTHONPATH."""
    src = str(Path(weylchar.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def _modules_after(commands) -> list[str]:
    """Modules loaded by a fresh interpreter after running the commands through cli.main."""
    script = (
        "import contextlib, io, json, sys\n"
        "from weylchar.cli import main\n"
        "codes = []\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        f"    for argv in {[c.split() for c in commands]!r}:\n"
        "        codes.append(main(argv))\n"
        "print(json.dumps({'codes': codes, 'modules': sorted(sys.modules)}))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=_child_env(), timeout=120, check=True)
    out = json.loads(proc.stdout)
    assert out["codes"] == [0] * len(commands)
    return out["modules"]


def test_numpy_free_commands_do_not_import_numpy():
    modules = _modules_after(NUMPY_FREE_COMMANDS)
    assert "numpy" not in modules
    modules = _modules_after(["poisson --stirling 4"])
    for name in ("symfunc", "afalgebra", "moments", "ucharacters"):
        assert f"weylchar.{name}" not in modules


@pytest.mark.parametrize("d", ("0", "-1"))
def test_hciz_rejects_nonpositive_d(d):
    # Without --a/--b a random spectrum of length d is drawn until it is
    # nonzero, which never happens for d < 1; the timeout catches that hang.
    proc = subprocess.run([sys.executable, "-m", "weylchar.cli", "hciz", "--d", d],
                          capture_output=True, text=True, env=_child_env(), timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    assert f"error: argument --d: must be a positive integer, got {d}\n" in proc.stderr


def test_hciz_rejects_negative_n(capsys):
    code, payload, err = run_cli(capsys, ["hciz", "--d", "3", "--n", "-1"])
    assert code == 2 and payload is None
    assert "n must be a nonnegative integer, got -1" in err


@pytest.mark.parametrize(
    "extra, code, fragment",
    [
        (["--mode", "exp", "--a", "1,1,0,0", "--b", "1,0,-1,2"], 2, "needs simple spectra"),
        (["--n", "13"], 3, "power-sum expansion bound exceeded: |lam| = 13 > 12"),
    ],
)
def test_hciz_refuses_before_sampling(capsys, monkeypatch, extra, code, fragment):
    from weylchar import moments

    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before the exact side refused")

    monkeypatch.setattr(moments, "hciz_monte_carlo", no_sampling)
    got, payload, err = run_cli(capsys, ["hciz", "--d", "4", "--samples", "400000"] + extra)
    assert got == code and payload is None
    assert fragment in err


HCIZ_FIXED = ["hciz", "--d", "2", "--a", "1,-1", "--b", "1,-1"]


def test_hciz_rejects_negative_seed_flag(capsys):
    code, payload, err = run_cli(capsys, HCIZ_FIXED + ["--seed", "-1"])
    assert code == 2 and payload is None
    assert err == "error: seed must be a nonnegative integer, got -1\n"


def test_hciz_rejects_negative_seed_env(capsys, monkeypatch):
    monkeypatch.setenv("WEYLCHAR_SEED", "-2")
    code, payload, err = run_cli(capsys, HCIZ_FIXED)
    assert code == 2 and payload is None
    assert err == "error: seed must be a nonnegative integer, got -2\n"


@pytest.mark.parametrize("command", sorted(PINNED_STDOUT))
def test_readme_stdout_is_the_pinned_bytes(capsys, monkeypatch, command):
    monkeypatch.delenv("WEYLCHAR_SEED", raising=False)
    assert main(command.split()[1:]) == 0
    stdout = capsys.readouterr().out.encode()
    assert hashlib.sha256(stdout).hexdigest() == PINNED_STDOUT[command]


def _render(value):
    return json.loads(json.dumps(value, default=_encode))


def test_encoder_writes_a_fraction_as_n_over_d():
    assert _render([Fraction(2), Fraction(-3, 4)]) == ["2/1", "-3/4"]


def test_encoder_writes_a_qqi_field_of_a_dataclass_as_re_im():
    # dataclasses.asdict would write the QQi as {"re": ..., "im": ...}.
    @dataclasses.dataclass(frozen=True)
    class Holder:
        value: QQi
        weight: Fraction

    held = Holder(QQi(Fraction(1, 2), Fraction(-3)), Fraction(1, 3))
    assert _render(held) == {"value": [0.5, -3.0], "weight": "1/3"}


def test_encoder_refuses_an_unknown_type():
    with pytest.raises(TypeError, match="object has no JSON form"):
        json.dumps({"x": object()}, default=_encode)


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (["hciz", "--d", "3", "--a", "1,-1", "--b", "1,-1", "--samples", "1000"],
         "spectrum length must match --d"),
        (["ergodic", "--u", "1/4", "--level", "1"], "block 0 at level 1 has size 2"),
        (["poisson", "--series-n", "1", "--kernel-a", "-1", "--tau", "0.5,0"],
         "rates must be positive and finite"),
        (["poisson", "--series-n", "-1", "--kernel-a", "1", "--tau", "0.5,0"],
         "level n must be nonnegative"),
        (["poisson", "--series-n", "2", "--kernel-a", " "], "need at least one rate"),
    ],
)
def test_input_refusals_exit_2(capsys, argv, fragment):
    code, payload, err = run_cli(capsys, argv)
    assert code == 2 and payload is None
    assert fragment in err
