"""The bench gate's ``--update`` keeps 1-CPU scaling runs out of the
baselines: a shard or peer "speedup" measured without a second core
would gate every later run against the scheduler, not the scaling."""

import json

import check_regression


def _write(directory, name, payload):
    directory.mkdir(exist_ok=True)
    path = directory / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload))
    return path


def test_update_refuses_single_cpu_scaling(tmp_path, capsys):
    fresh, baselines = tmp_path / "fresh", tmp_path / "baselines"
    baselines.mkdir()
    _write(fresh, "serve", {"cpus": 1, "speedup": 6.0})
    bad = _write(fresh, "fabric", {"cpus": 1, "peers": 2,
                                   "peer_speedup": 0.9})
    code = check_regression.main([str(fresh), "--baseline-dir",
                                  str(baselines), "--update"])
    assert code == 1
    assert str(bad) in capsys.readouterr().err
    assert list(baselines.iterdir()) == []


def test_update_promotes_multi_core_scaling(tmp_path):
    fresh, baselines = tmp_path / "fresh", tmp_path / "baselines"
    baselines.mkdir()
    _write(fresh, "serve", {"cpus": 1, "speedup": 6.0})
    _write(fresh, "shard_scaling", {"cpus": 2, "shards": 2,
                                    "speedup": 1.8})
    code = check_regression.main([str(fresh), "--baseline-dir",
                                  str(baselines), "--update"])
    assert code == 0
    assert sorted(p.name for p in baselines.iterdir()) == [
        "BENCH_serve.json", "BENCH_shard_scaling.json"]
