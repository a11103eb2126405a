import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from inboxaudit.config import build_config
from inboxaudit.pipeline import run_report

# scripts/synth.py in turn puts perfbench/ (gen, the EML renderer) there
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))

from synth import make_grid_corpus, make_synthetic_corpus  # noqa: E402

settings.register_profile(
    "repo", deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("repo")


@pytest.fixture(scope="session")
def synth_corpus(tmp_path_factory):
    return make_synthetic_corpus(tmp_path_factory.mktemp("synth"), seed=42)


@pytest.fixture(scope="session")
def grid_corpus(tmp_path_factory):
    return make_grid_corpus(tmp_path_factory.mktemp("grid"))


def config_for(corpus, out_dir, **extra):
    overrides = {
        "corpus_dir": str(corpus.eml_dir),
        "registry_path": str(corpus.registry_path),
        "ip2asn_path": str(corpus.ip2asn_path),
        "abuse_path": str(corpus.abuse_path),
        "org_map_path": str(corpus.org_map_path),
        "sector_map_path": str(corpus.sector_map_path),
        "output_dir": str(out_dir),
        "seed": 42,
    }
    overrides.update(extra)
    return build_config(overrides=overrides)


@pytest.fixture(scope="session")
def synth_run(synth_corpus, tmp_path_factory):
    """Config + full pipeline artifacts for the main synthetic corpus."""
    out = tmp_path_factory.mktemp("synth_out")
    cfg = config_for(synth_corpus, out)
    report = run_report(cfg)
    return cfg, out, report
