"""Campaign expansion, execution, caching and aggregation.

The full-figure sweeps run as CI campaigns; here the fast experiments
exercise every code path: expansion determinism, content-keyed caching,
serial vs parallel byte-identity and artifact validity.
"""

import json

import pytest

from repro.campaign import (
    CampaignError,
    derive_seed,
    expand_tasks,
    parse_campaign,
    run_campaign,
    source_digest,
    validate_artifact,
    write_artifact,
)
from repro.obs import MetricsRegistry

FAST = """
[campaign]
name = "fast"
seeds = [0, 1]
experiments = ["fig4", "figA3", "tableA1", "fig16"]
"""


@pytest.fixture(scope="module")
def fast_artifact():
    spec = parse_campaign(FAST)
    return run_campaign(spec, jobs=1, cache_dir=None)


def test_expand_is_deterministic():
    spec = parse_campaign(FAST)
    first, second = expand_tasks(spec), expand_tasks(spec)
    assert first == second
    assert [t.index for t in first] == list(range(len(first)))


def test_expand_collapses_seed_insensitive():
    spec = parse_campaign(FAST)
    by_exp = {}
    for task in expand_tasks(spec):
        by_exp.setdefault(task.exp_id, []).append(task)
    # Deterministic analyses run once; the simulation sweeps per seed.
    assert len(by_exp["fig4"]) == 1
    assert len(by_exp["figA3"]) == 1
    assert len(by_exp["tableA1"]) == 1
    assert len(by_exp["fig16"]) == 2


def test_expand_rejects_unknown_experiment():
    spec = parse_campaign("[campaign]\nexperiments = ['nope']\n")
    with pytest.raises(CampaignError):
        expand_tasks(spec)


def test_derive_seed_is_content_keyed():
    base = derive_seed(0, "fig11", {"sizes": [40]})
    assert base == derive_seed(0, "fig11", {"sizes": [40]})
    assert base != derive_seed(1, "fig11", {"sizes": [40]})
    assert base != derive_seed(0, "fig11", {"sizes": [80]})
    assert base != derive_seed(0, "fig12", {"sizes": [40]})
    assert 0 <= base < 2 ** 31


def test_every_experiment_has_a_campaign_surface():
    from repro.campaign.runner import _param_grid, _seed_sensitive
    from repro.experiments import EXPERIMENTS

    for exp_id in EXPERIMENTS:
        grid = _param_grid(exp_id, quick=True)
        assert grid, exp_id
        assert all(isinstance(params, dict) for params in grid), exp_id
        assert isinstance(_seed_sensitive(exp_id), bool)


def test_artifact_is_valid_and_rows_json_safe(fast_artifact):
    assert validate_artifact(fast_artifact) == []
    # Rows must round-trip through strict JSON (the docs renderer and
    # CI consume the artifact file, not the in-memory dict).
    text = json.dumps(fast_artifact["experiments"], sort_keys=True)
    assert json.loads(text) == fast_artifact["experiments"]


def test_parallel_matches_serial_byte_for_byte(fast_artifact, tmp_path):
    spec = parse_campaign(FAST)
    parallel = run_campaign(spec, jobs=2, cache_dir=tmp_path / "cache",
                            mp_context="spawn")
    assert (json.dumps(parallel["experiments"], sort_keys=True)
            == json.dumps(fast_artifact["experiments"], sort_keys=True))


def test_cache_hits_and_preserves_rows(fast_artifact, tmp_path):
    spec = parse_campaign(FAST)
    cache = tmp_path / "cache"
    first = run_campaign(spec, jobs=1, cache_dir=cache)
    assert not any(t["cached"] for t in first["tasks"])
    second = run_campaign(spec, jobs=1, cache_dir=cache)
    assert all(t["cached"] for t in second["tasks"])
    assert (json.dumps(second["experiments"], sort_keys=True)
            == json.dumps(fast_artifact["experiments"], sort_keys=True))


def test_source_digest_tracks_content(tmp_path):
    (tmp_path / "a.py").write_text("x = 1\n")
    before = source_digest(tmp_path)
    assert before == source_digest(tmp_path)
    (tmp_path / "a.py").write_text("x = 2\n")
    assert source_digest(tmp_path) != before


def test_metrics_registry_wiring(tmp_path):
    spec = parse_campaign(
        "[campaign]\nexperiments = ['figA3', 'tableA1']\n")
    registry = MetricsRegistry()
    run_campaign(spec, jobs=1, cache_dir=tmp_path / "cache",
                 registry=registry)
    rendered = registry.render()
    assert "campaign.tasks.total" in rendered
    assert "campaign.tasks.done" in rendered
    # All tasks finished, so the pull-gauge queue depth reads zero.
    assert registry.gauge("campaign.queue_depth").value == 0


def test_write_artifact_stable(fast_artifact, tmp_path):
    path = tmp_path / "artifact.json"
    write_artifact(fast_artifact, path)
    write_artifact(json.loads(path.read_text()), tmp_path / "again.json")
    assert path.read_text() == (tmp_path / "again.json").read_text()


def test_progress_lines_carry_eta_and_cache_label(tmp_path):
    spec = parse_campaign(
        "[campaign]\nexperiments = ['figA3', 'tableA1']\n")
    lines = []
    run_campaign(spec, jobs=1, cache_dir=tmp_path / "cache",
                 progress=lines.append)
    assert len(lines) == 2
    assert lines[0].startswith("[1/2] ")
    assert lines[-1].startswith("[2/2] ")
    # Executed tasks report wall time; every line but the last carries
    # a histogram-derived ETA (nothing remains after the final task).
    assert all("eta ~" in line for line in lines[:-1])
    assert "eta ~" not in lines[-1]
    assert all("s)" in line for line in lines)
    # A warm second sweep labels every hit as cached.
    cached_lines = []
    run_campaign(spec, jobs=1, cache_dir=tmp_path / "cache",
                 progress=cached_lines.append)
    assert all("(cached)" in line for line in cached_lines)
