import io
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ionmodes.anharmonic import ChiMatrix
from ionmodes.chifile import chi_to_text, read_chi
from ionmodes.cli import main

REPO = Path(__file__).resolve().parents[1]
CONFIGS = REPO / "configs"
DATA = REPO / "data"
# CLI output of every shipped config at 12 digits: stdout per command, and
# chi's --out text with its .json mirror.  A change meant to alter these
# bytes regenerates the files and says so.
GOLDEN = REPO / "tests" / "data" / "cli"
COMMAND_CONFIGS = {
    "chi": "chi_two_mgh_coulomb.json",
    "coherence": "coherence_single_ion.json",
    "gate": "gate_two_ion.json",
    "modes": "modes_bmmb.json",
    "null": "null_kappa3.json",
    "scan": "scan_com_be.json",
    "sensitivity": "sensitivity_single_be.json",
}


# chi files that fail to parse, and the line each error names
MALFORMED_CHI_TEXT = {
    "ragged_row": ("# frequencies_hz: 2e6 1e6\n1 2\n3\n", 3),
    "non_number": ("# frequencies_hz: 2e6 1e6\n1 x\n3 4\n", 2),
    "non_number_frequency": ("# frequencies_hz: 2e6 y\n1 2\n3 4\n", 1),
}


class TestChiFile:
    def _chi(self):
        rng = np.random.default_rng(8)
        return ChiMatrix(chi=rng.normal(size=(3, 3)) * 5,
                         mode_frequencies=np.array([7e6, 5e6, 1.8e6]),
                         provenance={"coulomb": True})

    def test_full_precision_round_trip(self):
        chi = self._chi()
        text = chi_to_text(chi, precision=17)
        back = read_chi(io.StringIO(text))
        assert np.array_equal(back.chi, chi.chi)
        assert np.array_equal(back.mode_frequencies, chi.mode_frequencies)
        # base is a property of chi, so a chi read back at 17 digits
        # carries the written base bit for bit
        assert back.base is not None
        assert np.array_equal(back.base, chi.base)

    def test_default_precision_round_trip(self):
        chi = self._chi()
        back = read_chi(io.StringIO(chi_to_text(chi)))
        assert back.chi == pytest.approx(chi.chi, rel=1e-11)
        assert back.base == pytest.approx(
            chi.base, rel=0, abs=1e-11 * np.abs(chi.chi).max())

    @pytest.mark.parametrize("provenance,line", [
        ({"trap_cubic": False, "coulomb": True},
         "# provenance: coulomb=True trap_cubic=False\n"),
        ({}, "")])
    def test_exact_text(self, provenance, line):
        chi = ChiMatrix(chi=np.array([[1.5, -0.25], [-0.25, 12.0]]),
                        mode_frequencies=np.array([2e6, 1e6]),
                        provenance=provenance)
        assert chi_to_text(chi) == (
            "# ionmodes chi matrix\n"
            "# units: Hz per quantum; mode order: descending frequency\n"
            "# frequencies_hz: 2000000 1000000\n"
            + line +
            "  1.5 -0.25\n"
            "-0.25    12\n")

    def test_entries_below_the_printed_floor_print_as_zero(self):
        """An entry below 10^-precision of max|chi| prints as 0; the
        matrix itself keeps its numbers."""
        mat = np.array([[12.0, 1.1e-11, -1e-13], [2e-11, -3e-60, 0.0],
                        [-1e-13, 0.0, -1.5]])
        chi = ChiMatrix(chi=mat.copy(), mode_frequencies=np.array([3e6, 2e6, 1e6]),
                        provenance={})
        rows = chi_to_text(chi).splitlines()[3:]
        assert [r.split() for r in rows] == [
            ["12", "0", "0"], ["2e-11", "0", "0"], ["0", "0", "-1.5"]]
        assert np.array_equal(chi.chi, mat)
        assert read_chi(io.StringIO(chi_to_text(chi, precision=17))).chi[0, 2] \
            == -1e-13

    def test_reads_reference_files(self):
        single = read_chi(DATA / "chi_single_ion_surface_trap.txt")
        assert single.chi.shape == (3, 3)
        assert single.chi[0, 1] == -2.7
        two = read_chi(DATA / "chi_two_ion_surface_trap.txt")
        assert two.mode_frequencies[1] == 6.8e6
        coul = read_chi(DATA / "chi_two_ion_coulomb_only.txt")
        assert coul.chi[4, 4] == 6.7

    def test_shape_mismatch_rejected(self):
        bad = "# frequencies_hz: 1e6 2e6\n1 2 3\n4 5 6\n"
        with pytest.raises(ValueError, match="expected a 2x2"):
            read_chi(io.StringIO(bad))

    def test_missing_frequencies_rejected(self):
        with pytest.raises(ValueError, match="frequencies_hz"):
            read_chi(io.StringIO("1 2\n3 4\n"))

    @pytest.mark.parametrize("text,where", MALFORMED_CHI_TEXT.values(),
                             ids=list(MALFORMED_CHI_TEXT))
    def test_parse_errors_name_file_and_line(self, text, where, tmp_path):
        path = tmp_path / "bad_chi.txt"
        path.write_text(text)
        with pytest.raises(ValueError,
                           match=rf"^{re.escape(str(path))}, line {where}: "):
            read_chi(path)

    def test_ascending_frequencies_rejected(self):
        bad = "# frequencies_hz: 1e6 2e6\n1 2\n3 4\n"
        with pytest.raises(ValueError, match="descending"):
            read_chi(io.StringIO(bad))

    @pytest.mark.parametrize("bad", [
        "# frequencies_hz: 2e6 1e6\nnan 1\n1 2\n",
        "# frequencies_hz: 2e6 1e6\n1 2\n-inf 4\n",
        "# frequencies_hz: nan 1e6\n1 2\n3 4\n",
        "# frequencies_hz: inf 1e6\n1 2\n3 4\n",
        "# frequencies_hz: 1e6 0\n1 2\n3 4\n",
        "# frequencies_hz: 1e6 -1e6\n1 2\n3 4\n",
    ], ids=["nan_entry", "inf_entry", "nan_frequency", "inf_frequency",
            "zero_frequency", "negative_frequency"])
    def test_non_finite_or_non_positive_rejected(self, bad):
        with pytest.raises(ValueError, match="^<stream>: .*(finite|positive)"):
            read_chi(io.StringIO(bad))


def run_cli(*args, env_extra=None):
    import os

    env = os.environ.copy()
    env.pop("IONMODES_PRECISION", None)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run([sys.executable, "-m", "ionmodes.cli", *args],
                          capture_output=True, text=True, env=env, cwd=REPO)
    return proc


class TestCommandLine:
    def test_modes_contains_reference_row(self):
        proc = run_cli("modes", "--config", str(CONFIGS / "modes_bmmb.json"))
        assert proc.returncode == 0
        assert "0.629" in proc.stdout.replace("0.6290", "0.629")

    @pytest.mark.parametrize("command", sorted(COMMAND_CONFIGS))
    def test_byte_stable_output(self, command):
        args = (command, "--config", str(CONFIGS / COMMAND_CONFIGS[command]))
        out1, out2 = run_cli(*args), run_cli(*args)
        assert out1.returncode == 0
        assert out1.stdout and out1.stdout == out2.stdout

    @pytest.mark.parametrize("command", sorted(COMMAND_CONFIGS))
    def test_output_matches_golden_bytes(self, command, tmp_path, monkeypatch,
                                         capsys):
        monkeypatch.delenv("IONMODES_PRECISION", raising=False)
        config = str(CONFIGS / COMMAND_CONFIGS[command])
        assert main([command, "--config", config]) == 0
        assert capsys.readouterr().out.encode() == \
            (GOLDEN / f"{command}.txt").read_bytes()
        if command == "chi":
            out = tmp_path / "chi_out.txt"
            assert main([command, "--config", config, "--out", str(out)]) == 0
            for name in ("chi_out.txt", "chi_out.json"):
                assert (tmp_path / name).read_bytes() == \
                    (GOLDEN / name).read_bytes()

    def test_chi_matches_reference_dominant_entries(self, tmp_path):
        out = tmp_path / "chi.txt"
        proc = run_cli("chi", "--config",
                       str(CONFIGS / "chi_two_mgh_coulomb.json"),
                       "--out", str(out))
        assert proc.returncode == 0
        chi = read_chi(out)
        ref = read_chi(DATA / "chi_two_ion_coulomb_only.txt")
        for z, a in ((4, 4), (3, 4), (1, 4), (1, 1)):
            assert chi.chi[z, a] == pytest.approx(ref.chi[z, a], rel=0.2)
        mirror = json.loads(out.with_suffix(".json").read_text())
        assert np.array(mirror["chi_hz"]) == pytest.approx(chi.chi)
        assert len(mirror["frequencies_hz"]) == 6

    def test_unknown_key_exit_code_and_path(self, tmp_path):
        cfg = json.loads((CONFIGS / "modes_bmmb.json").read_text())
        cfg["potential"]["typo_field"] = 1.0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        proc = run_cli("modes", "--config", str(bad))
        assert proc.returncode == 2
        assert "potential.typo_field" in proc.stderr

    def test_resonant_trap_exit_code(self, tmp_path):
        """A chi refused for a coupling across a resonance exits 4 with one
        stderr line: a single ion at an exact 3.6/1.8 MHz 2:1 with an x z^2
        trap cubic.  The 30-ion MgH+ probe chain (D = 90) has 1676
        near-degenerate combinations but nothing coupled across them, and
        exits 0 with nothing on stderr."""
        path = tmp_path / "resonant.json"
        x_zz = np.zeros((3, 3, 3))
        x_zz[0, 2, 2] = x_zz[2, 0, 2] = x_zz[2, 2, 0] = 1e10
        # kappa2 puts a single MgH25 ion at 1.8 and 0.3 MHz axially
        for chain, potential, trap, code in (
                (1, {"kappa2": 1.72300512639297e7},
                 {"radial_mhz": [3.6, 5.0],
                  "cubic_tensor_v_per_m3": x_zz.tolist()}, 4),
                (30, {"kappa2": 478612.5351091583,
                      "lambdas_um": {"3": 400.0, "4": 500.0}},
                 {"radial_mhz": [9.3, 6.1]}, 0)):
            path.write_text(json.dumps({
                "version": 1,
                "species": {"MgH25": {"mass_u": 25.994, "charge_e": 1}},
                "chain": ["MgH25"] * chain,
                "potential": potential,
                "trap3d": {"reference": "MgH25", **trap},
                "chi": {},
            }))
            proc = run_cli("chi", "--config", str(path))
            assert proc.returncode == code, proc.stderr
            if code:
                (line,) = proc.stderr.splitlines()
                assert line.startswith("resonance: ") and len(line) <= 200
                assert " near 1 coupled resonance(s), worst 2:1 modes " in line
            else:
                assert proc.stderr == "" and len(proc.stdout.splitlines()) > 90

    def test_bracket_failure_exit_code(self, tmp_path):
        cfg = json.loads((CONFIGS / "null_kappa3.json").read_text())
        cfg["null"]["bracket"] = [1.5, 2.0]  # no sign change here
        path = tmp_path / "nosign.json"
        path.write_text(json.dumps(cfg))
        proc = run_cli("null", "--config", str(path))
        assert proc.returncode == 5

    def test_numerical_failure_exit_code(self, tmp_path):
        cfg = json.loads((CONFIGS / "modes_bmmb.json").read_text())
        cfg["potential"]["kappas"] = {"4": -5e17}  # deconfining quartic
        path = tmp_path / "unstable.json"
        path.write_text(json.dumps(cfg))
        proc = run_cli("modes", "--config", str(path))
        assert proc.returncode == 3

    def test_null_root_report(self):
        proc = run_cli("null", "--config", str(CONFIGS / "null_kappa3.json"))
        assert proc.returncode == 0
        root = float(proc.stdout.strip().splitlines()[-1])
        assert root == pytest.approx(1.0, abs=1e-3)

    def test_gate_infidelity_output(self):
        proc = run_cli("gate", "--config", str(CONFIGS / "gate_two_ion.json"))
        assert proc.returncode == 0
        value = float(proc.stdout.strip().splitlines()[-1])
        assert value == pytest.approx(4e-2, rel=0.3)

    def test_gate_large_detuning_param_override(self):
        proc = run_cli("gate", "--config", str(CONFIGS / "gate_two_ion.json"),
                       "--param", "gate.detuning_khz=20")
        value = float(proc.stdout.strip().splitlines()[-1])
        assert value <= 1e-4

    def test_coherence_half_time(self):
        proc = run_cli("coherence", "--config",
                       str(CONFIGS / "coherence_single_ion.json"))
        assert proc.returncode == 0
        rows = [line.split(",") for line in proc.stdout.splitlines()
                if line and not line.startswith("#")]
        t = np.array([float(r[0]) for r in rows])
        c = np.array([float(r[1]) for r in rows])
        t_half = t[np.argmax(c <= 0.5)]
        assert t_half == pytest.approx(0.040, abs=0.006)

    def test_sensitivity_value(self):
        proc = run_cli("sensitivity", "--config",
                       str(CONFIGS / "sensitivity_single_be.json"))
        value = float(proc.stdout.strip().splitlines()[-1])
        assert abs(value) == pytest.approx(1.0e-3, rel=0.1)

    def test_scan_output(self):
        proc = run_cli("scan", "--config", str(CONFIGS / "scan_com_be.json"))
        assert proc.returncode == 0
        slope_line = [l for l in proc.stdout.splitlines()
                      if l.startswith("# slope_hz_per_ion:")][0]
        assert float(slope_line.split(":")[1]) < 0
        rows = [l for l in proc.stdout.splitlines()
                if l and not l.startswith("#")]
        assert len(rows) == 8

    def test_precision_env_var(self):
        args = ("sensitivity", "--config",
                str(CONFIGS / "sensitivity_single_be.json"))
        full = run_cli(*args).stdout.strip().splitlines()[-1]
        short = run_cli(*args, env_extra={"IONMODES_PRECISION": "4"})
        short_val = short.stdout.strip().splitlines()[-1]
        assert len(short_val) < len(full)
        assert float(short_val) == pytest.approx(float(full), rel=1e-3)

    def test_missing_config_file(self):
        proc = run_cli("modes", "--config", "/nonexistent/cfg.json")
        assert proc.returncode == 2

    def test_unwritable_out_is_a_config_error(self, tmp_path):
        out = tmp_path / "missing" / "modes.txt"
        proc = run_cli("modes", "--config", str(CONFIGS / "modes_bmmb.json"),
                       "--out", str(out))
        assert proc.returncode == 2
        assert proc.stderr.startswith("config error: ")
        assert "Traceback" not in proc.stderr
        assert not out.parent.exists()

    def test_chi_out_on_its_json_mirror_refused(self, tmp_path, monkeypatch,
                                                capsys):
        """--out x.json would be overwritten by chi's own .json mirror:
        refused before the configuration is even read, nothing written."""
        def unreachable(*args):
            raise AssertionError("configuration read before the refusal")

        monkeypatch.setattr("ionmodes.cli.load_config", unreachable)
        out = tmp_path / "chi_out.json"
        assert main(["chi", "--config", str(CONFIGS / COMMAND_CONFIGS["chi"]),
                     "--out", str(out)]) == 2
        assert "--out" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_modes_with_3d_trap(self, tmp_path):
        cfg = json.loads((CONFIGS / "chi_two_mgh_coulomb.json").read_text())
        cfg.pop("chi")
        cfg["modes"] = {}
        path = tmp_path / "modes3d.json"
        path.write_text(json.dumps(cfg))
        proc = run_cli("modes", "--config", str(path))
        assert proc.returncode == 0
        freq_line = proc.stdout.splitlines()[
            proc.stdout.splitlines().index("# mode frequencies (Hz), descending:") + 1]
        freqs = [float(v) for v in freq_line.split()]
        assert len(freqs) == 6
        assert freqs[0] == pytest.approx(7e6, rel=1e-9)

    def test_coherence_without_chi_file_computes_chi(self, tmp_path):
        # a single ion in a perfectly harmonic 3D trap has no cross
        # couplings, so the computed-chi path gives constant coherence
        cfg = {
            "version": 1,
            "species": {"MgH25": {"mass_u": 25.994, "charge_e": 1}},
            "chain": ["MgH25"],
            "potential": {"kappa2": 1.72300512639297e7},
            "trap3d": {"reference": "MgH25", "radial_mhz": [7.0, 5.0]},
            "environment": {"temperature_mk": 0.7},
            "coherence": {"mode_index": 1, "t_max_s": 0.1, "samples": 11},
        }
        path = tmp_path / "computed.json"
        path.write_text(json.dumps(cfg))
        proc = run_cli("coherence", "--config", str(path))
        assert proc.returncode == 0
        values = [float(line.split(",")[1]) for line in proc.stdout.splitlines()
                  if line and not line.startswith("#")]
        assert values == pytest.approx([1.0] * 11, abs=1e-9)

    def test_cold_environment_gate_and_coherence(self, capsys):
        """Modes frozen far below h f / k_B: no thermal infidelity and full
        coherence, not an overflow of the Bose-Einstein exponential."""
        cold = ("--param", "environment.temperature_mk=1e-4")
        assert main(["gate", "--config", str(CONFIGS / "gate_two_ion.json"),
                     *cold]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "0"
        assert main(["coherence", "--config",
                     str(CONFIGS / "coherence_single_ion.json"), *cold]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()
                if line and not line.startswith("#")]
        assert rows and all(c == "1" for _, c in rows)

    def test_overflow_is_a_numerical_failure(self, capsys):
        rc = main(["gate", "--config", str(CONFIGS / "gate_two_ion.json"),
                   "--param", "gate.detuning_khz=1e300"])
        assert rc == 3
        assert capsys.readouterr().err.startswith("numerical failure: ")

    def test_in_process_entry_point(self, tmp_path, capsys):
        # the console entry point mirrors the subprocess behaviour
        rc = main(["sensitivity", "--config",
                   str(CONFIGS / "sensitivity_single_be.json")])
        assert rc == 0
        assert "field sensitivity" in capsys.readouterr().out


DELETE = object()

# (config file, command, {dotted path: new value or DELETE}, path the
# error must name).  Physical ranges are reported at the path of the object
# whose constructor rejects them; keys, types, defaults and "required" at
# the field itself.
MALFORMED = {
    # ranges owned by the domain constructors
    "mass_negative": ("modes_bmmb.json", "modes",
                      {"species.Be9.mass_u": -1.0}, "species.Be9"),
    "charge_zero": ("modes_bmmb.json", "modes",
                    {"species.Be9.charge_e": 0}, "species.Be9"),
    "kappa2_negative": ("modes_bmmb.json", "modes",
                        {"potential.kappa2": -1.3e7}, "potential"),
    "lambda_zero": ("null_kappa3.json", "null",
                    {"potential.lambdas_um.3": 0.0}, "potential"),
    "gradient_without_reference": (
        "modes_bmmb.json", "modes",
        {"potential.pseudo_gradient_ev_per_m": 5.0}, "potential"),
    "radial_negative": ("chi_two_mgh_coulomb.json", "chi",
                        {"trap3d.radial_mhz": [-7.0, 5.0]}, "trap3d"),
    "tensor_shape": ("chi_two_mgh_coulomb.json", "chi",
                     {"trap3d.cubic_tensor_v_per_m3": [[1.0, 2.0]]}, "trap3d"),
    "tensor_object": ("chi_two_mgh_coulomb.json", "chi",
                      {"trap3d.quartic_tensor_v_per_m4": {"x": 1}}, "trap3d"),
    "environment_both": ("coherence_single_ion.json", "coherence",
                         {"environment.nbar": [0.1, 0.1, 0.1]}, "environment"),
    "environment_neither": ("coherence_single_ion.json", "coherence",
                            {"environment.temperature_mk": DELETE},
                            "environment"),
    "temperature_negative": ("coherence_single_ion.json", "coherence",
                             {"environment.temperature_mk": -0.7},
                             "environment"),
    "nbar_negative": ("gate_two_ion.json", "gate",
                      {"environment": {"nbar": [0.1] * 5 + [-1.0]}},
                      "environment"),
    # command sections: keys, types, defaults and "required"
    "t_max_missing": ("coherence_single_ion.json", "coherence",
                      {"coherence.t_max_s": DELETE}, "coherence.t_max_s"),
    "t_max_zero": ("coherence_single_ion.json", "coherence",
                   {"coherence.t_max_s": 0}, "coherence.t_max_s"),
    "samples_one": ("coherence_single_ion.json", "coherence",
                    {"coherence.samples": 1}, "coherence.samples"),
    "n_upper_zero": ("coherence_single_ion.json", "coherence",
                     {"coherence.n_upper": 0}, "coherence.n_upper"),
    "mode_index_zero": ("coherence_single_ion.json", "coherence",
                        {"coherence.mode_index": 0}, "coherence.mode_index"),
    "mode_index_beyond_modes": ("coherence_single_ion.json", "coherence",
                                {"coherence.mode_index": 4},
                                "coherence.mode_index"),
    "gate_mode_index_missing": ("gate_two_ion.json", "gate",
                                {"gate.mode_index": DELETE}, "gate.mode_index"),
    "detuning_zero": ("gate_two_ion.json", "gate",
                      {"gate.detuning_khz": 0.0}, "gate.detuning_khz"),
    "detuning_string": ("gate_two_ion.json", "gate",
                        {"gate.detuning_khz": "x"}, "gate.detuning_khz"),
    "chi_file_missing": ("gate_two_ion.json", "gate",
                         {"gate.chi_file": "no_such_chi.txt"}, "gate.chi_file"),
    "n_max_missing": ("scan_com_be.json", "scan",
                      {"scan.n_max": DELETE}, "scan.n_max"),
    "n_max_below_n_min": ("scan_com_be.json", "scan",
                          {"scan.n_min": 5, "scan.n_max": 3}, "scan.n_max"),
    "scan_section_absent": ("scan_com_be.json", "scan",
                            {"scan": DELETE}, "scan.n_max"),
    "family_missing": ("null_kappa3.json", "null",
                       {"null.family": DELETE}, "null.family"),
    "family_acts_on_nothing": ("null_kappa3.json", "null",
                               {"null.family": {}}, "null.family"),
    "family_order_below_3": ("null_kappa3.json", "null",
                             {"null.family.kappa": {"2": 1.0}},
                             "null.family.kappa.2"),
    "bracket_short": ("null_kappa3.json", "null",
                      {"null.bracket": [0.0]}, "null.bracket"),
    "bracket_entry": ("null_kappa3.json", "null",
                      {"null.bracket": [0.0, "a"]}, "null.bracket[1]"),
    "mode_label_unknown": ("null_kappa3.json", "null",
                           {"null.mode_label": "sideways"}, "null.mode_label"),
    "field_missing": ("sensitivity_single_be.json", "sensitivity",
                      {"sensitivity.field_v_per_m": DELETE},
                      "sensitivity.field_v_per_m"),
    "sensitivity_mode_negative": ("sensitivity_single_be.json", "sensitivity",
                                  {"sensitivity.mode": -1}, "sensitivity.mode"),
    # what a command needs besides its own section
    "coherence_without_environment": ("coherence_single_ion.json", "coherence",
                                      {"environment": DELETE}, "environment"),
    "chi_without_trap3d": ("chi_two_mgh_coulomb.json", "chi",
                           {"trap3d": DELETE}, "trap3d"),
    "computed_chi_without_trap3d": ("gate_two_ion.json", "gate",
                                    {"gate.chi_file": DELETE}, "trap3d"),
    "null_three_ions": ("null_kappa3.json", "null",
                        {"chain": ["Be9", "Mg24", "Be9"]}, "chain"),
    # inputs that crashed or exited 3 before the rules had one owner
    "tensor_string": ("chi_two_mgh_coulomb.json", "chi",
                      {"trap3d.cubic_tensor_v_per_m3": "abc"}, "trap3d"),
    "chi_file_number": ("gate_two_ion.json", "gate",
                        {"gate.chi_file": 5}, "gate.chi_file"),
    "sensitivity_mode_beyond_chain": ("sensitivity_single_be.json",
                                      "sensitivity", {"sensitivity.mode": 1},
                                      "sensitivity.mode"),
    "nbar_length": ("gate_two_ion.json", "gate",
                    {"environment": {"nbar": [0.1, 0.1]}}, "environment.nbar"),
    "chain_label_list": ("modes_bmmb.json", "modes",
                         {"chain": [["Be9"]]}, "chain[0]"),
    # bad input that exited 3 or ran
    "tensor_infinite": ("chi_two_mgh_coulomb.json", "chi",
                        {"trap3d.cubic_tensor_v_per_m3":
                         [[[math.inf] * 3] * 3] * 3}, "trap3d"),
    "version_true": ("modes_bmmb.json", "modes", {"version": True}, "version"),
    # every section in the file is checked, not only the command's
    "unused_section_bad_value": ("chi_two_mgh_coulomb.json", "chi",
                                 {"gate": {"mode_index": 1,
                                           "detuning_khz": "x"}},
                                 "gate.detuning_khz"),
}


def _mutated_config(tmp_path, name, edits):
    cfg = json.loads((CONFIGS / name).read_text())
    for section in ("coherence", "gate"):
        # the copy lives elsewhere, so pin chi files to the original's folder
        if "chi_file" in cfg.get(section, {}):
            cfg[section]["chi_file"] = str(
                (CONFIGS / cfg[section]["chi_file"]).resolve())
    for dotted, value in edits.items():
        *parents, leaf = dotted.split(".")
        node = cfg
        for part in parents:
            node = node[part]
        if value is DELETE:
            del node[leaf]
        else:
            node[leaf] = value
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


class TestMalformedConfig:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_exits_2_naming_the_path(self, case, tmp_path, capsys):
        name, command, edits, where = MALFORMED[case]
        path = _mutated_config(tmp_path, name, edits)
        rc = main([command, "--config", str(path)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith(f"config error: {where}: ")
        assert "Traceback" not in captured.err

    def test_malformed_chi_file(self, tmp_path, capsys):
        (tmp_path / "ascending.txt").write_text(
            "# frequencies_hz: 1e6 2e6\n0 0\n0 0\n")
        path = _mutated_config(tmp_path, "gate_two_ion.json",
                               {"gate.chi_file": "ascending.txt"})
        rc = main(["gate", "--config", str(path)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("config error: gate.chi_file: ")
        assert "descending" in captured.err

    @pytest.mark.parametrize("text", [
        "# frequencies_hz: 2e6 1e6\nnan 1.0\n1.0 inf\n",
        "# frequencies_hz: inf 1e6\n0 0\n0 0\n",
    ], ids=["nan_entry", "inf_frequency"])
    def test_non_finite_chi_file(self, text, tmp_path, capsys):
        (tmp_path / "non_finite.txt").write_text(text)
        path = _mutated_config(tmp_path, "gate_two_ion.json",
                               {"gate.chi_file": "non_finite.txt"})
        rc = main(["gate", "--config", str(path)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("config error: gate.chi_file: ")
        assert "finite" in captured.err

    @pytest.mark.parametrize("text", [t for t, _ in MALFORMED_CHI_TEXT.values()],
                             ids=list(MALFORMED_CHI_TEXT))
    def test_unparsable_chi_file(self, text, tmp_path, capsys):
        (tmp_path / "unparsable.txt").write_text(text)
        path = _mutated_config(tmp_path, "gate_two_ion.json",
                               {"gate.chi_file": "unparsable.txt"})
        rc = main(["gate", "--config", str(path)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("config error: gate.chi_file: ")
        assert "unparsable.txt, line " in captured.err

    def test_override_on_non_object_document(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[]")
        assert main(["modes", "--config", str(path), "--param", "a=1"]) == 2
        assert capsys.readouterr().err.startswith("config error: <document>: ")

    def test_config_path_is_a_directory(self, tmp_path, capsys):
        assert main(["modes", "--config", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("config error: ")

    @pytest.mark.parametrize("command", sorted(COMMAND_CONFIGS))
    def test_shipped_configs_validate(self, command):
        from ionmodes.config import validate_config

        raw = json.loads((CONFIGS / COMMAND_CONFIGS[command]).read_text())
        cfg = validate_config(raw, command)
        assert command in cfg.sections
