"""The committed perf ledger: rows keyed on (commit, bench, engine, workers)."""

import os

from repro.exp.history import append_history, format_trend, load_history


def row(value, **kw):
    return {"bench": "serve", "engine": "c", "metric": "requests_per_sec",
            "value": value, **kw}


def test_rows_differing_in_workers_or_commit_never_replace_each_other(tmp_path):
    path = tmp_path / "BENCH_history.json"
    append_history(row(100.0), path, date="2026-09-01", commit="aaaaaaa")
    append_history(row(180.0, workers=2), path, date="2026-09-01", commit="aaaaaaa")
    append_history(row(300.0), path, date="2026-09-01", commit="bbbbbbb")
    rows = load_history(path)
    assert [(r["commit"], r["workers"], r["value"]) for r in rows] == [
        ("aaaaaaa", 1, 100.0), ("aaaaaaa", 2, 180.0), ("bbbbbbb", 1, 300.0),
    ]
    assert all(r["cpus"] == os.cpu_count() for r in rows)


def test_rerun_on_one_commit_updates_its_row(tmp_path):
    path = tmp_path / "BENCH_history.json"
    append_history(row(100.0), path, date="2026-09-01", commit="aaaaaaa")
    append_history(row(110.0), path, date="2026-09-02", commit="aaaaaaa")
    (only,) = load_history(path)
    assert (only["value"], only["date"]) == (110.0, "2026-09-02")


def test_rows_from_before_the_commit_key_are_kept(tmp_path):
    path = tmp_path / "BENCH_history.json"
    path.write_text('[{"bench": "serve", "date": "2026-08-08", "engine": "c", '
                    '"metric": "requests_per_sec", "value": 1.0, "workers": 2}]')
    append_history(row(2.0, workers=2), path, date="2026-09-01", commit="aaaaaaa")
    assert [r["value"] for r in load_history(path)] == [1.0, 2.0]


def test_commit_defaults_to_the_checkout_holding_the_file(tmp_path):
    (only,) = append_history(row(1.0), tmp_path / "h.json")
    assert only["commit"] == "unknown"   # tmp_path is no git checkout


def test_trend_prints_commit_workers_and_cpus(tmp_path):
    path = tmp_path / "BENCH_history.json"
    append_history(row(180.0, workers=2), path, date="2026-09-01", commit="aaaaaaa")
    header, _, line = format_trend(load_history(path)).splitlines()
    assert header.split()[:6] == ["date", "commit", "bench", "engine", "workers", "cpus"]
    assert line.split()[:6] == ["2026-09-01", "aaaaaaa", "serve", "c", "2",
                                str(os.cpu_count())]
