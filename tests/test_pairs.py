"""tools/pairs.py: paired benchmark runs of two checkouts."""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
METRICS = [m["name"] for m in DECLARED["end_to_end"]]

_spec = importlib.util.spec_from_file_location("pairs", ROOT / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)


def checkout_copy(dest: Path) -> Path:
    """The files bench/run.py needs from this tree, copied to dest."""
    skip = shutil.ignore_patterns("__pycache__", ".bench_out")
    for name in ("src", "bench"):
        shutil.copytree(ROOT / name, dest / name, ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    return dest


def test_smoke_pair_on_two_copies(tmp_path):
    parent, change = checkout_copy(tmp_path / "parent"), checkout_copy(tmp_path / "change")
    cmd = [sys.executable, str(ROOT / "tools" / "pairs.py"), str(parent), str(change),
           "--workload", "finger-ic-setpoints", "--pairs", "1", "--seconds", "1",
           "--scale", "smoke"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True and result["pairs"] == 1
    assert list(result["metrics"]) == METRICS
    for name, entry in result["metrics"].items():
        assert len(entry["parent"]) == len(entry["change"]) == 1
        assert entry["wins"] in (0, 1)
        assert any(line.strip().startswith(f"{name} [") for line in lines), name
    assert "correct: true" in lines
    probe = result["setup_probe"]
    assert len(probe["parent"]) == len(probe["change"]) == 2
    assert all(0.0 < t < 60.0 for t in probe["parent"] + probe["change"])
    assert any(line.strip().startswith("setup probe [s") for line in lines)


class FakeBench:
    """Stands in for run_bench: records each call and returns steps_per_s
    from ``rates`` by side, every other metric 1.0."""

    def __init__(self, rates, correct=True):
        self.rates, self.correct, self.calls = rates, correct, []

    def __call__(self, checkout, workload, seed, seconds, scale):
        side = checkout.name
        self.calls.append((side, seed))
        value = self.rates[side][sum(s == side for s, _ in self.calls) - 1]
        metrics = {name: {"value": value if name == "steps_per_s" else 1.0, "unit": "u"}
                   for name in METRICS}
        return {"correct": self.correct, "attempted": 1, "failed": 0, "metrics": metrics}


class FakeProbe:
    """Stands in for probe_setup: records each call and returns the next
    set-up time of ``times`` by side."""

    def __init__(self, times=None):
        self.times, self.calls = times, []

    def __call__(self, checkout, workload, seed, scale):
        side = checkout.name
        self.calls.append((side, seed))
        if self.times is None:
            return 0.25
        return self.times[side][sum(s == side for s, _ in self.calls) - 1]


def run_fake(monkeypatch, capsys, tmp_path, fake, n, probe=None):
    monkeypatch.setattr(pairs, "run_bench", fake)
    monkeypatch.setattr(pairs, "probe_setup", probe or FakeProbe())
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "change")
    code = pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "w",
                       "--pairs", str(n), "--seed", "7"])
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_alternates_first_side_and_counts_wins(monkeypatch, capsys, tmp_path):
    fake = FakeBench({"parent": [10.0, 10.0, 10.0, 10.0], "change": [11.0, 9.0, 12.0, 13.0]})
    code, result = run_fake(monkeypatch, capsys, tmp_path, fake, 4)
    assert code == 0
    assert fake.calls == [("parent", 7), ("change", 7), ("change", 8), ("parent", 8),
                          ("parent", 9), ("change", 9), ("change", 10), ("parent", 10)]
    rate = result["metrics"]["steps_per_s"]
    assert rate["wins"] == 3 and rate["better"] == "higher"
    assert rate["change_quartiles"] == [10.5, 11.5, 12.25]
    assert rate["gap_beyond_iqr"] is True
    # a tie is no win, in either direction
    assert result["metrics"]["wall_s"]["wins"] == 0


@pytest.mark.parametrize("parent,change,better,wins,beyond", [
    ([5.0, 6.0, 7.0], [3.0, 4.0, 5.0], "lower", 3, True),
    ([5.0, 6.0, 7.0], [4.0, 5.0, 6.0], "lower", 3, False),
    ([5.0, 6.0, 7.0], [5.5, 6.5, 7.5], "higher", 3, False),
    ([5.0, 6.0, 7.0], [5.0, 6.0, 7.0], "higher", 0, False),
])
def test_summarize(parent, change, better, wins, beyond):
    s = pairs.summarize(parent, change, better)
    assert s["wins"] == wins and s["gap_beyond_iqr"] is beyond
    assert s["parent_quartiles"] == [5.5, 6.0, 6.5]


def test_setup_probes_follow_every_pair(monkeypatch, capsys, tmp_path):
    # two probes per side after each pair, first side, second, second, first
    fake = FakeBench({"parent": [10.0] * 3, "change": [10.0] * 3})
    probe = FakeProbe({"parent": [0.30, 0.20, 0.25, 0.27, 0.24, 0.26],
                       "change": [0.22, 0.21, 0.23, 0.35, 0.20, 0.24]})
    monkeypatch.setattr(pairs, "run_bench", fake)
    monkeypatch.setattr(pairs, "probe_setup", probe)
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "change")
    code = pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "w",
                       "--pairs", "3", "--seed", "7"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    order = [("parent", "change", "change", "parent"), ("change", "parent", "parent", "change")]
    assert probe.calls == [(side, 7 + i) for i in range(3) for side in order[i % 2]]
    result = json.loads(lines[-1])["setup_probe"]
    assert result["parent"] == probe.times["parent"]
    assert result["change"] == probe.times["change"]
    assert result["parent_quartiles"] == pytest.approx([0.2425, 0.255, 0.2675])
    assert result["change_quartiles"] == pytest.approx([0.2125, 0.225, 0.2375])
    assert result["wins"] == 4 and result["better"] == "lower" and result["unit"] == "s"
    # the probe line sits right after setup_s's
    names = [line.split("[")[0].strip() for line in lines if " is better]: " in line]
    assert names[:2] == ["setup_s", "setup probe"]


@pytest.mark.parametrize("dont_write", ["1", ""])
def test_bytecode_state_beside_setup_s(monkeypatch, capsys, tmp_path, dont_write):
    # whether setup_s held compile time: the children's bytecode setting and
    # each checkout's __pycache__ before the first run and after the last
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", dont_write)
    fake = FakeBench({"parent": [10.0], "change": [10.0]})

    def bench(checkout, *args):
        (tmp_path / "change" / "src" / "clfqp" / "__pycache__").mkdir(parents=True, exist_ok=True)
        return fake(checkout, *args)

    code, result = run_fake(monkeypatch, capsys, tmp_path, bench, 1)
    assert code == 0
    assert result["bytecode"] == {"writes_bytecode": not dont_write,
                                  "pycache_before": {"parent": False, "change": False},
                                  "pycache_after": {"parent": False, "change": True}}


def test_bytecode_line_follows_the_setup_probe(monkeypatch, capsys, tmp_path):
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.setattr(pairs, "run_bench", FakeBench({"parent": [1.0], "change": [1.0]}))
    monkeypatch.setattr(pairs, "probe_setup", FakeProbe())
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "change")
    pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "w",
                "--pairs", "1"])
    lines = capsys.readouterr().out.strip().splitlines()
    at = next(i for i, line in enumerate(lines) if line.strip().startswith("setup probe ["))
    assert lines[at + 1].strip() == ("bytecode: child runs write it: no; src/clfqp/__pycache__"
                                     " before/after: parent no/no, change no/no")


def test_incorrect_run_exits_1(monkeypatch, capsys, tmp_path):
    fake = FakeBench({"parent": [1.0], "change": [2.0]}, correct=False)
    code, result = run_fake(monkeypatch, capsys, tmp_path, fake, 1)
    assert code == 1 and result["correct"] is False


def test_several_workloads_in_one_run(monkeypatch, capsys, tmp_path):
    # each workload runs its own pairs in turn and ends on its summary and
    # its JSON line; one incorrect workload makes the exit status 1
    seen = []

    def bench(checkout, workload, seed, seconds, scale):
        seen.append((workload, checkout.name, seed))
        value = {"parent": 10.0, "change": 9.0}[checkout.name] * (1 + len(workload))
        metrics = {name: {"value": value, "unit": "u"} for name in METRICS}
        return {"correct": workload != "bad", "attempted": 1, "failed": 0, "metrics": metrics}

    probe = FakeProbe()
    monkeypatch.setattr(pairs, "run_bench", bench)
    monkeypatch.setattr(pairs, "probe_setup", probe)
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "change")
    argv = [str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "table",
            "--workload", "w2", "--pairs", "2", "--seed", "3"]
    assert pairs.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert seen == [(w, side, seed) for w in ("table", "w2")
                    for seed, order in ((3, ("parent", "change")), (4, ("change", "parent")))
                    for side in order]
    assert len(probe.calls) == 2 * 2 * 4
    results = [json.loads(line) for line in lines if line.startswith("{")]
    assert [r["workload"] for r in results] == ["table", "w2"]
    assert json.loads(lines[-1]) == results[-1]
    for r, scale in zip(results, (6, 3)):
        assert r["correct"] is True and r["pairs"] == 2 and list(r["metrics"]) == METRICS
        assert r["metrics"]["wall_s"]["parent"] == [10.0 * scale] * 2
        assert r["metrics"]["wall_s"]["wins"] == 2
    # each summary precedes its JSON line
    heads = [i for i, line in enumerate(lines) if "pairs of" in line]
    jsons = [i for i, line in enumerate(lines) if line.startswith("{")]
    assert len(heads) == 2 and heads[0] < jsons[0] < heads[1] < jsons[1]
    assert pairs.main(argv[:2] + ["--workload", "w2", "--workload", "bad", "--pairs", "1"]) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["workload"] == "bad" and result["correct"] is False
