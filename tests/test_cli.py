import dataclasses
import json
import os
import shutil
import subprocess
import sys
from contextlib import nullcontext
from io import BytesIO
from pathlib import Path

import numpy as np
import pytest

from lvpat.cli import ExperimentConfig, main, run_experiment
from lvpat.errors import ParameterError
from lvpat.io import read_wave_data

from conftest import write_container

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SRC_DIR = CONFIG_DIR.parent / "src"


@pytest.fixture()
def smoke_config(tmp_path):
    """Copy of the smoke config pointing its output at a temp directory."""
    shutil.copy(CONFIG_DIR / "phantom_reference.json",
                tmp_path / "phantom_reference.json")
    raw = json.loads((CONFIG_DIR / "experiment_smoke.json").read_text())
    raw["out_dir"] = "out"
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(raw))
    return cfg_path


class TestConfig:

    def test_loads_shipped_configs(self):
        paths = sorted(CONFIG_DIR.glob("experiment_*.json"))
        assert {p.name for p in paths} >= {"experiment_full.json",
                                           "experiment_reduced.json",
                                           "experiment_smoke.json"}
        for path in paths:
            cfg = ExperimentConfig.from_json(path)
            assert cfg.geometry.domain.a1 == 2.0
            assert (cfg.split.theta_lo, cfg.split.theta_hi) == (0.97, 2.17)

    def test_missing_phantom_is_config_error(self, tmp_path, smoke_config):
        raw = json.loads(smoke_config.read_text())
        raw["phantom"] = "nope.json"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        assert main(["train", "--config", str(bad)]) == 2

    def test_malformed_json_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert main(["train", "--config", str(bad)]) == 2

    @pytest.mark.parametrize("section, key, value, message", [
        ("geometry", "dt", float("nan"), "dt"),
        ("geometry", "spacing", -0.1, "spacing"),
        ("geometry", "a1", float("nan"), "semi-axes"),
        ("geometry", "t_max", float("inf"), "t_max"),
        ("grid", "h", float("nan"), "grid"),
        (None, "threads", 0, "threads"),
        (None, "threads", 1.7, "threads"),
        ("grid", "nx", 40.5, "grid.nx"),
        ("grid", "ny", 41.2, "grid.ny"),
        ("geometry", "dt", "fast", "geometry.dt"),
        ("geometry", "a1", None, "geometry.a1"),
        (None, "box", [0, 1, 2], "box"),
        ("grid", "origin", [0.0], "grid.origin"),
        (None, "n_list", [4, 2], "n_list"),
        (None, "phantom", 5, "phantom"),
        (None, "out_dir", 5, "out_dir"),
        (None, "geometry", [1], "geometry"),
        (None, None, [], "config"),
    ], ids=["nan-dt", "negative-spacing", "nan-a1", "inf-t_max", "nan-h",
            "zero-threads", "fractional-threads", "fractional-nx",
            "fractional-ny", "text-dt", "null-a1", "three-box-edges",
            "one-origin-coordinate", "flat-n_list", "number-phantom",
            "number-out_dir", "list-geometry", "list-config"])
    def test_bad_value_is_config_error(self, tmp_path, smoke_config, capsys,
                                       section, key, value, message):
        raw = json.loads(smoke_config.read_text())
        if key is None:  # the whole config
            raw = value
        else:
            (raw[section] if section else raw)[key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        assert main(["experiment", "--config", str(bad)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("digits, message", [
        ("1" + "0" * 400, "beyond the float range"),
        ("1" * 5000, "not readable JSON"),
        ("[" * 100000, "not readable JSON"),
    ], ids=["beyond-float", "beyond-digit-limit", "beyond-recursion-limit"])
    def test_huge_integer_literal_is_config_error(self, tmp_path, smoke_config,
                                                  capsys, digits, message):
        # json.dumps cannot write a 5000-digit int, so the literal goes in
        # as text
        raw = json.loads(smoke_config.read_text())
        raw["geometry"]["a1"] = "A1"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw).replace('"A1"', digits))
        assert main(["train", "--config", str(bad),
                     "--out", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err
        with pytest.raises(ParameterError):
            ExperimentConfig.from_json(bad)

    @pytest.mark.parametrize("digits, message", [
        ("1" + "0" * 400, "beyond the float range"),
        ("1" * 5000, "not readable JSON"),
        ("[" * 100000, "not readable JSON"),
    ], ids=["beyond-float", "beyond-digit-limit", "beyond-recursion-limit"])
    def test_huge_integer_in_phantom_spec_is_config_error(
            self, tmp_path, smoke_config, capsys, digits, message):
        phantom = tmp_path / "huge.json"
        phantom.write_text('{"type": "ellipse", "center": [0.0, 0.0], '
                           f'"semi_a": {digits}, "semi_b": 0.1}}')
        assert main(["simulate", "--config", str(smoke_config),
                     "--phantom", str(phantom),
                     "--out", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_bad_threads_flag_is_config_error(self, tmp_path, smoke_config,
                                              capsys, threads):
        assert main(["train", "--config", str(smoke_config), "--threads",
                     threads, "--out", str(tmp_path / "out")]) == 2
        assert "--threads must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("edge", range(4),
                             ids=["x_lo", "x_hi", "y_lo", "y_hi"])
    def test_nan_box_edge_is_config_error(self, tmp_path, smoke_config, capsys,
                                          edge):
        # an infinite edge fails the same way, before any NaN cell edge
        for value in (float("nan"), (-1) ** (edge + 1) * float("inf")):
            raw = json.loads(smoke_config.read_text())
            raw["box"][edge] = value
            bad = tmp_path / "bad.json"
            bad.write_text(json.dumps(raw))
            assert main(["train", "--config", str(bad),
                         "--out", str(tmp_path / "out")]) == 2
            assert "degenerate box" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key", [
        (None, "thread"), (None, "outdir"), ("geometry", "t_maxx"),
        ("grid", "hx")], ids=["thread", "outdir", "geometry", "grid"])
    def test_unknown_config_key_is_config_error(self, tmp_path, smoke_config,
                                                capsys, section, key):
        # a misspelled optional key would otherwise fall back to its default
        raw = json.loads(smoke_config.read_text())
        (raw[section] if section else raw)[key] = "elsewhere"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        before = sorted(tmp_path.iterdir())
        assert main(["experiment", "--config", str(bad)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert repr(key) in err[0]
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("command", ["simulate", "experiment"])
    @pytest.mark.parametrize("spec, message", [
        ('{"type": "sum", "terms": [[NaN, %s]]}', "finite"),
        ('{"type": "sum", "terms": [[1.0, %s], [Infinity, %s]]}', "finite"),
        ('{"type": "ellipse", "center": [-0.5, -0.2], "semi_a": 0.3, '
         '"semi_b": 0.2, "rotaton": 0.4}', "'rotaton'"),
    ], ids=["nan-coefficient", "infinity-coefficient", "misspelled-key"])
    def test_bad_phantom_spec_is_config_error(self, tmp_path, smoke_config,
                                              capsys, command, spec, message):
        # the phantom the config names, read by both commands before they
        # write anything
        square = ('{"type": "square", "x_lo": -0.5, "x_hi": 0.0, '
                  '"y_lo": -0.5, "y_hi": 0.0}')
        phantom = tmp_path / "phantom_reference.json"
        phantom.write_text(spec.replace("%s", square))
        before = sorted(tmp_path.iterdir())
        extra = ["--phantom", str(phantom)] if command == "simulate" else []
        assert main([command, "--config", str(smoke_config), *extra]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert message in err[0]
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("section, key", [
        *((None, key) for key in ("geometry", "phantom", "box", "n_list",
                                  "grid")),
        *(("geometry", key) for key in ("a1", "a2", "spacing", "dt", "t_max",
                                        "gamma2_theta_lo", "gamma2_theta_hi")),
        *(("grid", key) for key in ("origin", "h", "nx", "ny"))])
    def test_missing_config_key_is_config_error(self, tmp_path, smoke_config,
                                                capsys, section, key):
        raw = json.loads(smoke_config.read_text())
        del (raw[section] if section else raw)[key]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        before = sorted(tmp_path.iterdir())
        assert main(["train", "--config", str(bad)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {section or 'config'} has no key {key!r}"]
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("kind, key", [
        *(("square", key) for key in ("type", "x_lo", "x_hi", "y_lo", "y_hi")),
        *(("ellipse", key) for key in ("center", "semi_a", "semi_b")),
        ("sum", "terms")])
    def test_missing_phantom_key_is_config_error(self, tmp_path, smoke_config,
                                                 capsys, kind, key):
        square = {"type": "square", "x_lo": -0.5, "x_hi": 0.0,
                  "y_lo": -0.5, "y_hi": 0.0}
        spec = {"square": square,
                "ellipse": {"type": "ellipse", "center": [-0.5, -0.2],
                            "semi_a": 0.3, "semi_b": 0.2, "rotation": 0.4},
                "sum": {"type": "sum", "terms": [[1.0, square]]}}[kind]
        del spec[key]
        phantom = tmp_path / "phantom.json"
        phantom.write_text(json.dumps(spec))
        assert main(["simulate", "--config", str(smoke_config), "--phantom",
                     str(phantom), "--out", str(tmp_path / "out")]) == 2
        what = "phantom spec" if key == "type" else f"{kind} spec"
        assert capsys.readouterr().err.splitlines() == [
            f"error: {what} has no key {key!r}"]
        assert not (tmp_path / "out").exists()

    def test_off_rule_partition_warns(self, tmp_path, smoke_config):
        raw = json.loads(smoke_config.read_text())
        raw["n_list"] = [[3, 2]]
        odd = tmp_path / "odd.json"
        odd.write_text(json.dumps(raw))
        with pytest.warns(UserWarning):
            ExperimentConfig.from_json(odd)

    @pytest.mark.parametrize("n_list", [[[4, 2], [4, 2]],
                                        [[4, 2], [2, 4], [2, 1], [4, 2]]],
                             ids=["adjacent", "apart"])
    def test_repeated_partition_is_config_error(self, tmp_path, smoke_config,
                                                capsys, n_list):
        # a repeated partition would overwrite its own row in the summary
        raw = json.loads(smoke_config.read_text())
        raw["n_list"] = n_list
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        with pytest.warns(UserWarning) if [2, 4] in n_list else nullcontext():
            rc = main(["train", "--config", str(bad),
                       "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: n_list repeats partition 4x2"]
        assert not (tmp_path / "out").exists()

    def test_any_replaced_leaf_parses_or_is_config_error(self, smoke_config):
        # each leaf in turn takes a value of every other JSON type
        raw = json.loads(smoke_config.read_text())

        def leaves(node, path=()):
            items = node.items() if isinstance(node, dict) else enumerate(node)
            for key, value in items:
                if isinstance(value, (dict, list)):
                    yield from leaves(value, path + (key,))
                else:
                    yield path + (key,)

        rejected = 0
        for path in leaves(raw):
            for junk in (None, "x", [], {}, True):
                bad = json.loads(json.dumps(raw))
                node = bad
                for key in path[:-1]:
                    node = node[key]
                node[path[-1]] = junk
                smoke_config.write_text(json.dumps(bad))
                try:
                    ExperimentConfig.from_json(smoke_config)
                except ParameterError:
                    rejected += 1
        assert rejected > 0


class TestSubcommands:

    def test_simulate_zero_phantom(self, tmp_path, smoke_config):
        zero = tmp_path / "zero.json"
        zero.write_text(json.dumps({"type": "sum", "terms": []}))
        out = tmp_path / "sim"
        rc = main(["simulate", "--config", str(smoke_config),
                   "--phantom", str(zero), "--part", "gamma1",
                   "--out", str(out)])
        assert rc == 0
        data = read_wave_data(out / "data_gamma1.patb")
        assert np.all(data.samples == 0.0)

    def test_simulate_rerun_is_byte_identical(self, tmp_path, smoke_config):
        phantom = tmp_path / "phantom_reference.json"
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            rc = main(["simulate", "--config", str(smoke_config),
                       "--phantom", str(phantom), "--part", "full",
                       "--out", str(out), "--threads", "2"])
            assert rc == 0
        assert (out_a / "data_full.patb").read_bytes() == \
            (out_b / "data_full.patb").read_bytes()

    def test_train_extend_reconstruct_evaluate(self, tmp_path, smoke_config):
        out = tmp_path / "out"
        phantom = tmp_path / "phantom_reference.json"
        assert main(["train", "--config", str(smoke_config),
                     "--out", str(out)]) == 0
        assert (out / "model_2x1.patb").exists()
        assert (out / "model_4x2.patb").exists()

        assert main(["simulate", "--config", str(smoke_config),
                     "--phantom", str(phantom), "--part", "gamma1",
                     "--out", str(out)]) == 0
        assert main(["extend", "--config", str(smoke_config),
                     "--model", str(out / "model_4x2.patb"),
                     "--data", str(out / "data_gamma1.patb"),
                     "--out", str(out)]) == 0
        assert (out / "extended_4x2.patb").exists()

        assert main(["reconstruct", "--config", str(smoke_config),
                     "--data", str(out / "extended_4x2.patb"),
                     "--out", str(out)]) == 0
        recon = out / "recon_extended_4x2.patb"
        assert recon.exists()
        assert main(["evaluate", "--config", str(smoke_config),
                     "--phantom", str(phantom),
                     "--data", str(recon), "--out", str(out)]) == 0
        text = (out / "errors.csv").read_text()
        assert text.startswith("variant,n,E2,E_n")
        assert "recon_extended_4x2" in text

        # the experiment runs the same stage code as the chain above
        exp = tmp_path / "experiment"
        assert main(["experiment", "--config", str(smoke_config),
                     "--out", str(exp)]) == 0
        assert (out / "extended_4x2.patb").read_bytes() == \
            (exp / "extended_4x2.patb").read_bytes()
        assert recon.read_bytes() == (exp / "recon_4x2.patb").read_bytes()

    def test_numeric_failure_exit_code(self, smoke_config, monkeypatch):
        import lvpat.cli as cli
        from lvpat.errors import SingularTrainingSetError

        def boom(cfg, threads=None):
            raise SingularTrainingSetError(minor_index=3, ridge=1e-9)

        monkeypatch.setattr(cli, "run_experiment", boom)
        assert main(["experiment", "--config", str(smoke_config)]) == 3

    def test_failed_command_removes_only_its_empty_out_dir(
            self, tmp_path, smoke_config, monkeypatch):
        import lvpat.cli as cli
        from lvpat.errors import SingularTrainingSetError
        missing = ["--model", str(tmp_path / "no_model.patb"),
                   "--data", str(tmp_path / "no_data.patb")]
        # the call made out and its parent, and wrote nothing: both go
        out = tmp_path / "new" / "out"
        assert main(["extend", "--config", str(smoke_config), *missing,
                     "--out", str(out)]) == 2
        assert not (tmp_path / "new").exists()
        # a directory that was there before the call stays
        before = tmp_path / "before"
        before.mkdir()
        assert main(["extend", "--config", str(smoke_config), *missing,
                     "--out", str(before)]) == 2
        assert before.is_dir()

        # so does one the failed call wrote into
        def partial(cfg, threads=None):
            (cfg.out_dir / "partial.txt").write_text("x")
            raise SingularTrainingSetError(minor_index=3, ridge=1e-9)

        monkeypatch.setattr(cli, "run_experiment", partial)
        out = tmp_path / "written"
        assert main(["experiment", "--config", str(smoke_config),
                     "--out", str(out)]) == 3
        assert (out / "partial.txt").is_file()

    def test_extend_with_wrong_geometry_is_config_error(self, tmp_path,
                                                        smoke_config):
        out = tmp_path / "out"
        phantom = tmp_path / "phantom_reference.json"
        main(["train", "--config", str(smoke_config), "--out", str(out)])
        main(["simulate", "--config", str(smoke_config), "--phantom",
              str(phantom), "--part", "gamma1", "--out", str(out)])
        raw = json.loads(smoke_config.read_text())
        raw["geometry"]["dt"] = 0.2
        other = tmp_path / "other.json"
        other.write_text(json.dumps(raw))
        rc = main(["extend", "--config", str(other),
                   "--model", str(out / "model_4x2.patb"),
                   "--data", str(out / "data_gamma1.patb"),
                   "--out", str(out)])
        assert rc == 2

    def test_extend_data_on_other_time_step_is_config_error(
            self, tmp_path, smoke_config, capsys):
        from lvpat.io import write_wave_data
        out = tmp_path / "out"
        main(["train", "--config", str(smoke_config), "--out", str(out)])
        main(["simulate", "--config", str(smoke_config), "--phantom",
              str(tmp_path / "phantom_reference.json"), "--part", "gamma1",
              "--out", str(out)])
        data_path = out / "data_gamma1.patb"
        data = read_wave_data(data_path)
        write_wave_data(dataclasses.replace(data, dt=2 * data.dt), data_path)
        rc = main(["extend", "--config", str(smoke_config),
                   "--model", str(out / "model_4x2.patb"),
                   "--data", str(data_path), "--out", str(out)])
        assert rc == 2
        assert "dt=0.2" in capsys.readouterr().err
        assert not (out / "extended_4x2.patb").exists()

    def test_extend_non_finite_data_is_config_error(self, tmp_path,
                                                    smoke_config, capsys):
        from lvpat.io import write_wave_data
        out = tmp_path / "out"
        phantom = tmp_path / "phantom_reference.json"
        main(["train", "--config", str(smoke_config), "--out", str(out)])
        main(["simulate", "--config", str(smoke_config), "--phantom",
              str(phantom), "--part", "gamma1", "--out", str(out)])
        data_path = out / "data_gamma1.patb"
        data = read_wave_data(data_path)
        samples = data.samples.copy()
        samples[0, 0] = np.nan
        write_wave_data(data.copy_with(samples), data_path)
        rc = main(["extend", "--config", str(smoke_config),
                   "--model", str(out / "model_4x2.patb"),
                   "--data", str(data_path), "--out", str(out)])
        assert rc == 2
        assert "non-finite" in capsys.readouterr().err


    @pytest.mark.parametrize("dt, message", [
        (float("nan"), "time step"), (-0.1, "time step"), (0.0, "time step"),
        (0.05, "dt=0.05"),
    ], ids=["nan", "negative", "zero", "other-step"])
    def test_reconstruct_bad_time_step_is_config_error(self, tmp_path,
                                                       smoke_config, capsys,
                                                       dt, message):
        # the smoke geometry samples at dt = 0.1
        from lvpat.io import write_wave_data
        out = tmp_path / "out"
        main(["simulate", "--config", str(smoke_config), "--phantom",
              str(tmp_path / "phantom_reference.json"), "--out", str(out)])
        data_path = out / "data_full.patb"
        data = read_wave_data(data_path)
        write_wave_data(dataclasses.replace(data, dt=dt), data_path)
        rc = main(["reconstruct", "--config", str(smoke_config),
                   "--data", str(data_path), "--out", str(out)])
        assert rc == 2
        assert message in capsys.readouterr().err

    def test_reconstruct_data_of_other_geometry_is_config_error(
            self, tmp_path, smoke_config, capsys):
        # a2 = 1.002 keeps the smoke boundary's node count and time grid, so
        # only the fingerprint tells the data's geometry from the config's
        raw = json.loads(smoke_config.read_text())
        raw["geometry"]["a2"] = 1.002
        other_config = tmp_path / "other.json"
        other_config.write_text(json.dumps(raw))
        main(["simulate", "--config", str(other_config), "--phantom",
              str(tmp_path / "phantom_reference.json"),
              "--out", str(tmp_path / "other")])
        data_path = tmp_path / "other" / "data_full.patb"
        data = read_wave_data(data_path)
        geom = ExperimentConfig.from_json(smoke_config).geometry
        assert (len(data.node_idx), data.dt, data.n_time) == \
            (geom.n_nodes, geom.dt, geom.n_time)
        out = tmp_path / "out"
        capsys.readouterr()
        rc = main(["reconstruct", "--config", str(smoke_config),
                   "--data", str(data_path), "--out", str(out)])
        assert rc == 2
        assert "fingerprint" in capsys.readouterr().err
        assert not (out / "recon_data_full.patb").exists()

    @pytest.mark.parametrize("digits, message", [
        ("1" + "0" * 400, "beyond the float range"),
        ("1" * 5000, "not a text section holding a JSON object"),
    ], ids=["beyond-float", "beyond-digit-limit"])
    def test_reconstruct_huge_time_step_is_config_error(
            self, tmp_path, smoke_config, capsys, digits, message):
        meta = ('{"dt": ' + digits + ', "fingerprint": "cafef00d", '
                '"n_time": 4, "part": "full"}')
        data_path = tmp_path / "data.patb"
        data_path.write_bytes(write_container([
            ("meta", meta), ("node_idx", np.arange(3.0)),
            ("samples", np.zeros((3, 4)))]))
        rc = main(["reconstruct", "--config", str(smoke_config),
                   "--data", str(data_path), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("drop, message", [
        ("fingerprint", "wave-data meta has no key 'fingerprint'"),
        ("part", "wave-data meta has no key 'part'"),
        ("node_idx", "wave data has no section 'node_idx'"),
        ("samples", "wave data has no section 'samples'"),
    ])
    def test_reconstruct_data_without_key_is_config_error(
            self, tmp_path, smoke_config, capsys, drop, message):
        meta = {"dt": 0.1, "fingerprint": "cafef00d", "n_time": 4,
                "part": "full"}
        meta.pop(drop, None)
        sections = [("meta", json.dumps(meta)), ("node_idx", np.arange(3.0)),
                    ("samples", np.zeros((3, 4)))]
        data_path = tmp_path / "data.patb"
        data_path.write_bytes(write_container(
            [(name, value) for name, value in sections if name != drop]))
        rc = main(["reconstruct", "--config", str(smoke_config),
                   "--data", str(data_path), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize("drop, message", [
        ("fingerprint", "model meta has no key 'fingerprint'"),
        ("gram", "model has no section 'gram'"),
        ("geometry", "model meta has no key 'geometry'"),
        ("partition", "model holds no square partition shape"),
    ])
    def test_extend_model_without_key_is_config_error(
            self, tmp_path, smoke_config, capsys, drop, message):
        from lvpat.io import read_container
        out = tmp_path / "out"
        main(["train", "--config", str(smoke_config), "--out", str(out)])
        main(["simulate", "--config", str(smoke_config), "--phantom",
              str(tmp_path / "phantom_reference.json"), "--part", "gamma1",
              "--out", str(out)])
        model_path = out / "model_4x2.patb"
        sections = dict(read_container(BytesIO(model_path.read_bytes())))
        meta = json.loads(sections["meta"])
        meta.pop(drop, None)
        sections["meta"] = json.dumps(meta)
        sections.pop(drop, None)
        model_path.write_bytes(write_container(list(sections.items())))
        capsys.readouterr()
        rc = main(["extend", "--config", str(smoke_config),
                   "--model", str(model_path),
                   "--data", str(out / "data_gamma1.patb"), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not (out / "extended_4x2.patb").exists()

    def test_extend_old_layout_model_is_config_error(self, tmp_path,
                                                     smoke_config, capsys):
        # a model written before models stored their recipe: dense traces
        # and node indices as sections, the time axis and ds in meta
        from lvpat.io import read_container
        out = tmp_path / "out"
        main(["train", "--config", str(smoke_config), "--out", str(out)])
        main(["simulate", "--config", str(smoke_config), "--phantom",
              str(tmp_path / "phantom_reference.json"), "--part", "gamma1",
              "--out", str(out)])
        split = ExperimentConfig.from_json(smoke_config).split
        geom, i1, i2 = split.geometry, split.gamma1_idx, split.gamma2_idx
        model_path = out / "model_4x2.patb"
        sections = dict(read_container(BytesIO(model_path.read_bytes())))
        meta = json.loads(sections["meta"])
        n = len(meta["phantoms"])
        old_meta = {"fingerprint": meta["fingerprint"], "dt": geom.dt,
                    "ds": geom.ds, "n_time": geom.n_time,
                    "outside_detection": [], "phantoms": meta["phantoms"]}
        model_path.write_bytes(write_container([
            ("meta", json.dumps(old_meta, sort_keys=True)),
            ("gram", sections["gram"]),
            ("u1_idx", i1.astype(float)), ("u2_idx", i2.astype(float)),
            ("u1", np.zeros((n, len(i1), geom.n_time))),
            ("u2", np.zeros((n, len(i2), geom.n_time)))]))
        capsys.readouterr()
        rc = main(["extend", "--config", str(smoke_config),
                   "--model", str(model_path),
                   "--data", str(out / "data_gamma1.patb"), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: model meta has no key 'geometry'"]
        assert not (out / "extended_4x2.patb").exists()

    def test_extend_names_output_by_partition_shape(self, tmp_path,
                                                    smoke_config):
        out = tmp_path / "out"
        raw = json.loads(smoke_config.read_text())
        raw["n_list"] = [[4, 3]]
        cfg = tmp_path / "config43.json"
        cfg.write_text(json.dumps(raw))
        with pytest.warns(UserWarning, match="n_w = 2"):
            assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
            assert main(["simulate", "--config", str(cfg), "--phantom",
                         str(tmp_path / "phantom_reference.json"),
                         "--part", "gamma1", "--out", str(out)]) == 0
            assert main(["extend", "--config", str(cfg),
                         "--model", str(out / "model_4x3.patb"),
                         "--data", str(out / "data_gamma1.patb"),
                         "--out", str(out)]) == 0
        assert (out / "extended_4x3.patb").exists()
        assert (out / "gamma2_hat_4x3.patb").exists()

    def test_extend_non_symmetric_gram_is_config_error(self, tmp_path,
                                                       smoke_config, capsys):
        from lvpat.io import read_container
        out = tmp_path / "out"
        phantom = tmp_path / "phantom_reference.json"
        main(["train", "--config", str(smoke_config), "--out", str(out)])
        main(["simulate", "--config", str(smoke_config), "--phantom",
              str(phantom), "--part", "gamma1", "--out", str(out)])
        model_path = out / "model_4x2.patb"
        sections = read_container(BytesIO(model_path.read_bytes()))
        gram = dict(sections)["gram"]
        gram[0, 1] += 1e-3 * np.abs(gram).max()
        model_path.write_bytes(write_container(sections))
        rc = main(["extend", "--config", str(smoke_config),
                   "--model", str(model_path),
                   "--data", str(out / "data_gamma1.patb"), "--out", str(out)])
        assert rc == 2
        assert "symmetric" in capsys.readouterr().err

    def test_evaluate_repeated_stem_is_config_error(self, tmp_path,
                                                    smoke_config, capsys):
        # two images of one stem would share one row of errors.csv
        from lvpat.io import write_image_field
        from lvpat.phantoms import ImageField
        paths = [tmp_path / sub / "recon_x.patb" for sub in ("a", "b")]
        for path in paths:
            path.parent.mkdir()
            write_image_field(ImageField((-2.2, -2.2), 0.11, np.zeros((41, 41)),
                                         np.ones((41, 41), dtype=bool)), path)
        rc = main(["evaluate", "--config", str(smoke_config),
                   "--phantom", str(tmp_path / "phantom_reference.json"),
                   "--data", *map(str, paths), "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "'recon_x'" in err[0]
        assert not (tmp_path / "out").exists()

    def test_evaluate_rows_by_stem(self, tmp_path, smoke_config):
        from lvpat.io import write_image_field
        from lvpat.phantoms import rasterize
        cfg = ExperimentConfig.from_json(smoke_config)
        truth = rasterize(cfg.load_phantom(), cfg.grid)
        paths = []
        for stem, shift in [("recon_b", 1.0), ("recon_c", 2.0), ("recon_a", 0.0)]:
            paths.append(tmp_path / f"{stem}.patb")
            write_image_field(dataclasses.replace(
                truth, values=truth.values + shift), paths[-1])
        assert main(["evaluate", "--config", str(smoke_config),
                     "--phantom", str(tmp_path / "phantom_reference.json"),
                     "--data", *map(str, paths),
                     "--out", str(tmp_path / "out")]) == 0
        lines = (tmp_path / "out" / "errors.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in lines] == [
            "variant", "recon_a", "recon_b", "recon_c"]
        assert all(line.endswith(",") and line.split(",")[1] == ""
                   for line in lines[1:])
        assert lines[1] == "recon_a,,0.0,"

    def test_evaluate_non_finite_image_is_config_error(self, tmp_path,
                                                       smoke_config, capsys):
        from lvpat.io import write_image_field
        from lvpat.phantoms import ImageField
        values = np.zeros((41, 41))
        values[20, 20] = np.nan
        image = tmp_path / "recon_nan.patb"
        write_image_field(ImageField((-2.2, -2.2), 0.11, values,
                                     np.ones((41, 41), dtype=bool)), image)
        rc = main(["evaluate", "--config", str(smoke_config),
                   "--phantom", str(tmp_path / "phantom_reference.json"),
                   "--data", str(image), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("token, encoding", [(b"meta", "ascii"),
                                                 (b"gamma1", "utf-8")],
                             ids=["name", "text"])
    def test_extend_undecodable_container_is_config_error(
            self, tmp_path, smoke_config, capsys, token, encoding):
        from lvpat.forward import Part, WaveData
        from lvpat.io import write_wave_data
        data_path = tmp_path / "data.patb"
        write_wave_data(WaveData(Part.GAMMA1, np.arange(3), 0.1, 4,
                                 np.zeros((3, 4)), "cafef00d"), data_path)
        blob = bytearray(data_path.read_bytes())
        blob[blob.index(token)] = 0xFF
        data_path.write_bytes(bytes(blob))
        rc = main(["extend", "--config", str(smoke_config),
                   "--model", str(tmp_path / "model_4x2.patb"),
                   "--data", str(data_path), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert f"not {encoding}" in capsys.readouterr().err


class TestExperiment:

    def test_smoke_experiment(self, tmp_path, smoke_config):
        cfg = ExperimentConfig.from_json(smoke_config)
        summary = run_experiment(cfg, threads=1)
        out = cfg.out_dir
        for name in ("data_full.patb", "data_full.pgm", "recon_full.patb",
                     "recon_zero.pgm", "extended_2x1.patb", "recon_4x2.pgm",
                     "errors.csv", "timings.csv"):
            assert (out / name).exists(), name
        assert set(summary["e2"]) == {"full", "zero", "2x1", "4x2"}
        lines = (out / "errors.csv").read_text().strip().split("\n")
        assert len(lines) == 5  # header + zero + 2 learned + full
        # even at smoke resolution the learned extension beats zero padding
        assert summary["e2"]["4x2"] < summary["e2"]["zero"]
        for key in ("image_error", "gamma2_error"):
            assert list(summary[key]) == ["zero", "2x1", "4x2"]
        assert summary["gamma2_error"]["zero"] == 1.0

    def test_equal_sizes_keep_their_own_rows(self, tmp_path, smoke_config):
        # 4x2 and 2x4 both have n = 8: each row holds its own E_n
        from lvpat.metrics import subspace_distance
        from lvpat.phantoms import training_partition
        raw = json.loads(smoke_config.read_text())
        raw["n_list"] = [[4, 2], [2, 4]]
        smoke_config.write_text(json.dumps(raw))
        with pytest.warns(UserWarning, match="2x4"):
            cfg = ExperimentConfig.from_json(smoke_config)
        summary = run_experiment(cfg, threads=1)
        rows = [line.split(",") for line in
                (cfg.out_dir / "errors.csv").read_text().splitlines()[1:]]
        assert [(name, n) for name, n, _, _ in rows] == [
            ("zero", "0"), ("2x4", "8"), ("4x2", "8"), ("full", "")]
        phantom = cfg.load_phantom()
        for name, _, e2, e_n in rows[1:3]:
            n_w, n_h = map(int, name.split("x"))
            want = subspace_distance(
                phantom, training_partition(cfg.box, n_w, n_h), cfg.grid)
            assert float(e_n) == pytest.approx(want, rel=1e-12, abs=0.0), name
            assert float(e2) == summary["e2"][name]
        assert float(rows[1][3]) != float(rows[2][3])

    def test_zero_phantom_has_no_relative_gamma2_error(self, tmp_path,
                                                       smoke_config):
        zero = tmp_path / "zero.json"
        zero.write_text(json.dumps({"type": "sum", "terms": []}))
        raw = json.loads(smoke_config.read_text())
        raw["phantom"] = "zero.json"
        smoke_config.write_text(json.dumps(raw))
        summary = run_experiment(ExperimentConfig.from_json(smoke_config))
        assert all(np.isnan(v) for v in summary["gamma2_error"].values())
        assert set(summary["image_error"].values()) == {0.0}


class TestSerialBlas:

    def test_run_experiment_restores_thread_counts(self, smoke_config,
                                                   monkeypatch, blas_threads):
        import lvpat.cli as cli
        real, seen = cli.rasterize, []

        def rasterize(*args, **kwargs):
            seen.append(blas_threads())
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "rasterize", rasterize)
        run_experiment(ExperimentConfig.from_json(smoke_config), threads=2)
        assert seen and all(counts == [1] * len(counts) for counts in seen)
        assert blas_threads() == [2] * len(seen[0])

    def test_run_experiment_restores_thread_counts_on_error(
            self, smoke_config, monkeypatch, blas_threads):
        import lvpat.cli as cli
        seen = []

        def reconstruct(*args, **kwargs):
            seen.append(blas_threads())
            raise RuntimeError("reconstruct failed")

        monkeypatch.setattr(cli, "reconstruct", reconstruct)
        with pytest.raises(RuntimeError, match="reconstruct failed"):
            run_experiment(ExperimentConfig.from_json(smoke_config))
        assert seen[0] == [1] * len(seen[0])
        assert blas_threads() == [2] * len(seen[0])

    def test_no_openblas_does_nothing(self, monkeypatch, blas_threads):
        from lvpat import _util
        monkeypatch.setattr(_util, "_openblas", lambda: ())
        with _util.serial_blas():
            inside = blas_threads()
        assert inside == blas_threads() == [2] * len(inside)

    def test_outputs_independent_of_openblas_threads(self, tmp_path):
        # large enough for OpenBLAS to thread its calls: the 151^2 grid of
        # the reduced config at step 0.04 (the smoke config is not)
        raw = json.loads((CONFIG_DIR / "experiment_reduced.json").read_text())
        raw["geometry"]["spacing"] = raw["geometry"]["dt"] = 0.04
        raw["n_list"] = [[4, 2]]
        raw["phantom"] = str(CONFIG_DIR / "phantom_reference.json")
        outs = {}
        for n in ("1", "2"):
            raw["out_dir"] = str(tmp_path / f"blas{n}")
            cfg_path = tmp_path / f"blas{n}.json"
            cfg_path.write_text(json.dumps(raw))
            env = {**os.environ, "OPENBLAS_NUM_THREADS": n,
                   "PYTHONPATH": os.pathsep.join(filter(None, [
                       str(SRC_DIR), os.environ.get("PYTHONPATH")]))}
            subprocess.run(
                [sys.executable, "-c",
                 "import sys; from lvpat.cli import ExperimentConfig, "
                 "run_experiment; run_experiment("
                 "ExperimentConfig.from_json(sys.argv[1]))", str(cfg_path)],
                env=env, check=True, capture_output=True)
            outs[n] = {p.name: p.read_bytes()
                       for p in sorted(Path(raw["out_dir"]).iterdir())
                       if p.name != "timings.csv"}
        assert "recon_4x2.patb" in outs["1"]
        assert outs["1"].keys() == outs["2"].keys()
        differ = [name for name in outs["1"] if outs["1"][name] != outs["2"][name]]
        assert not differ, f"outputs depend on OPENBLAS_NUM_THREADS: {differ}"
