"""End-to-end pipeline and CLI behavior, including artifact schemas."""

import csv
import importlib.util
import json
import os
import shutil
import subprocess
import sys
import threading
from collections import Counter
from datetime import datetime, timedelta, timezone
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import jsonschema
import pytest
import scipy.stats
from click.testing import CliRunner
from referencing import Registry, Resource
from synth import make_synthetic_corpus

from inboxaudit.cli import main
from inboxaudit.pipeline import ANALYZE_ARTIFACTS, load_schema

SCHEMA_FILES = [
    "corpus_record.schema.json", "ingest_report.schema.json",
    "classification_record.schema.json", "classification_summary.schema.json",
    "sankey.schema.json", "treemap.schema.json", "loadings.schema.json",
    "sector_stats.schema.json", "report.schema.json",
]


def validator_for(name):
    registry = Registry()
    for fname in SCHEMA_FILES:
        contents = load_schema(fname)
        registry = registry.with_resource(
            uri=contents["$id"], resource=Resource.from_contents(contents))
    return jsonschema.Draft202012Validator(load_schema(name), registry=registry)


def cli_args(corpus, out, *extra):
    return [
        "--corpus-dir", str(corpus.eml_dir),
        "--registry", str(corpus.registry_path),
        "--out", str(out),
        "--set", f"ip2asn_path={corpus.ip2asn_path}",
        "--set", f"abuse_path={corpus.abuse_path}",
        "--set", f"org_map_path={corpus.org_map_path}",
        "--set", f"sector_map_path={corpus.sector_map_path}",
        "--seed", "42",
        *extra,
    ]


@pytest.fixture(scope="module")
def staged(synth_corpus, tmp_path_factory):
    """One CLI invocation per stage, sharing an output directory."""
    out = tmp_path_factory.mktemp("staged")
    runner = CliRunner()
    results = {}
    for stage in ("ingest", "classify", "analyze"):
        results[stage] = runner.invoke(main, [stage, *cli_args(synth_corpus, out)])
        assert results[stage].exit_code == 0, results[stage].output
    return out, results


@pytest.fixture(scope="module")
def short_corpus(tmp_path_factory):
    """Ten days of service mail; the bulk messages still run to day 28
    (see ``make_synthetic_corpus``). Small and quick to ingest."""
    return make_synthetic_corpus(tmp_path_factory.mktemp("short"), seed=1,
                                 n_days=10)


def test_staged_cli_produces_artifacts(staged):
    out, results = staged
    for name in ["corpus.jsonl", "ingest_report.json", "classifications.jsonl",
                 "classification_summary.json", *ANALYZE_ARTIFACTS]:
        assert (out / name).is_file(), name
    assert "files:" in results["ingest"].output
    assert "classified:" in results["classify"].output
    assert "selected_k:" in results["analyze"].output


def test_cli_report_chains_everything(synth_corpus, staged, tmp_path):
    result = CliRunner().invoke(main, ["report", *cli_args(synth_corpus, tmp_path)])
    assert result.exit_code == 0, result.output
    payload = json.loads((tmp_path / "report.json").read_text())
    validator_for("report.schema.json").validate(payload)
    assert payload["ingest"]["files"] == synth_corpus.expected["files"]
    assert set(payload["artifacts"]) >= set(ANALYZE_ARTIFACTS)
    # report hands stage results over in memory; the staged commands read
    # them back from disk: both must write the same bytes
    staged_out, _ = staged
    for name in payload["artifacts"]:
        assert (tmp_path / name).read_bytes() == \
            (staged_out / name).read_bytes(), name


# the HTTP client stack and process pools; certifi is left out because
# site may import it before any program code runs
STARTUP_FREE_MODULES = ["requests", "urllib3", "charset_normalizer", "idna",
                        "ssl", "http.client", "multiprocessing",
                        "concurrent.futures.process"]
# only the analysis (analyze, report, fixture-check) needs numpy
ANALYSIS_MODULES = ["numpy"]

_RUN_THEN_LIST_MODULES = """
import json, sys
from inboxaudit.cli import main
if sys.argv[1:]:
    main(sys.argv[1:], standalone_mode=False)
print(json.dumps([m for m in {modules!r} if m in sys.modules]))
"""


@pytest.fixture(scope="module")
def stage_processes(synth_corpus, tmp_path_factory):
    """One fresh process each: import the CLI; then rules-mode ingest,
    classify and analyze sharing one directory; then report in another.
    Maps each to (its process, its output directory)."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
    code = _RUN_THEN_LIST_MODULES.format(
        modules=STARTUP_FREE_MODULES + ANALYSIS_MODULES)
    staged = tmp_path_factory.mktemp("staged_processes")
    reported = tmp_path_factory.mktemp("report_process")
    runs = {}
    for name, out in (("import", staged), ("ingest", staged),
                      ("classify", staged), ("analyze", staged),
                      ("report", reported)):
        args = [] if name == "import" else [name, *cli_args(synth_corpus, out)]
        runs[name] = subprocess.run([sys.executable, "-c", code, *args],
                                    env=env, capture_output=True, text=True), out
    return runs


@pytest.mark.parametrize("stage, absent", [
    ("import", STARTUP_FREE_MODULES + ANALYSIS_MODULES),
    ("ingest", STARTUP_FREE_MODULES + ANALYSIS_MODULES),
    ("classify", STARTUP_FREE_MODULES + ANALYSIS_MODULES),
    ("analyze", STARTUP_FREE_MODULES),
    ("report", STARTUP_FREE_MODULES),
], ids=["import", "ingest", "classify", "analyze", "report"])
def test_stage_process_leaves_modules_unloaded(stage_processes, stage, absent):
    result, _ = stage_processes[stage]
    assert result.returncode == 0, result.stderr
    loaded = json.loads(result.stdout.splitlines()[-1])
    assert [m for m in absent if m in loaded] == []


def test_analyze_process_writes_report_artifacts(stage_processes):
    (_, staged), (_, reported) = (stage_processes["analyze"],
                                  stage_processes["report"])
    assert (reported / "report.json").is_file()
    for name in ANALYZE_ARTIFACTS:
        assert (staged / name).read_bytes() == (reported / name).read_bytes(), \
            name


def test_ingest_report_matches_expectations(staged, synth_corpus):
    out, _ = staged
    payload = json.loads((out / "ingest_report.json").read_text())
    validator_for("ingest_report.schema.json").validate(payload)
    expected = synth_corpus.expected
    assert payload["files"] == expected["files"]
    assert payload["unparseable"] == expected["unparseable"]
    assert payload["duplicates"] == expected["duplicates"]
    assert payload["unmatched"] == expected["unmatched_ok"]
    assert payload["ok"] == (payload["files"] - payload["unparseable"]
                             - payload["duplicates"])


def test_corpus_records_match_schema(staged):
    out, _ = staged
    validator = validator_for("corpus_record.schema.json")
    lines = (out / "corpus.jsonl").read_text().splitlines()
    assert lines
    for line in lines:
        validator.validate(json.loads(line))


def test_classification_artifacts_match_schema(staged, synth_corpus):
    out, _ = staged
    record_validator = validator_for("classification_record.schema.json")
    service_counts = {"promotional": 0, "crm": 0, "alert": 0}
    total = 0
    for line in (out / "classifications.jsonl").read_text().splitlines():
        entry = json.loads(line)
        record_validator.validate(entry)
        total += 1
        # the expected label tallies cover the scripted service mail only
        if not entry["message_id"].startswith(("bulk-", "stray-")):
            service_counts[entry["label"]] += 1
    assert service_counts == synth_corpus.expected["label_counts"]
    summary = json.loads((out / "classification_summary.json").read_text())
    validator_for("classification_summary.schema.json").validate(summary)
    assert summary["classifier"] == "rules"
    assert summary["classified"] == total
    assert sum(summary["counts"].values()) == summary["classified"]
    assert sum(summary["percentages"].values()) == pytest.approx(100.0)
    assert summary["unclassified"] == synth_corpus.expected["unparseable"]


def test_analysis_json_artifacts_match_schemas(staged):
    out, _ = staged
    for name in ("sankey", "treemap", "loadings", "sector_stats"):
        payload = json.loads((out / f"{name}.json").read_text())
        validator_for(f"{name}.schema.json").validate(payload)


def test_csv_headers_match_manifest(staged):
    out, _ = staged
    manifest = load_schema("csv_headers.json")
    csv_names = [n for n in ANALYZE_ARTIFACTS if n.endswith(".csv")]
    assert set(manifest) == set(csv_names)
    for name, headers in manifest.items():
        first = (out / name).read_text().splitlines()[0]
        assert first == ",".join(headers), name


def test_sector_stats_cross_checks(staged, synth_corpus):
    out, _ = staged
    stats = json.loads((out / "sector_stats.json").read_text())
    contingency = stats["contingency"]
    table_total = sum(sum(row) for row in contingency["counts"])
    # service mail plus the bulk blast to craftyard's alias; strays are
    # unmatched and carry no sector
    label_total = sum(synth_corpus.expected["label_counts"].values())
    assert table_total == label_total + synth_corpus.expected["bulk_to_craftyard"]
    prov = stats["provenance_summary"]
    ok = synth_corpus.expected["files"] - synth_corpus.expected["unparseable"] \
        - synth_corpus.expected["duplicates"]
    assert sum(prov["provenance"].values()) == ok
    assert sum(prov["spam"].values()) == ok
    # every spam verdict of uuss traces back to utp mail in this corpus
    assert prov["spam"]["uuss"] == prov["provenance"]["utp"]
    assert stats["chi_squared"] is not None
    assert stats["ip_hopping"]["n"] >= 10


def test_sector_stats_match_scipy(staged, synth_corpus):
    """The contingency table and per-sector company totals, counted here
    from the stage artifacts and the sector map, give sector_stats.json's
    statistics under scipy."""
    out, _ = staged
    labels = {}
    for line in (out / "classifications.jsonl").read_text().splitlines():
        entry = json.loads(line)
        labels[entry["message_id"]] = entry["label"]
    with open(synth_corpus.sector_map_path, encoding="utf-8") as fh:
        sector_map = {row["root_domain"].strip().lower(): row["sector"].strip()
                      for row in csv.DictReader(fh)}

    totals, content = Counter(), Counter()
    mapped, kind = {}, {}
    for line in (out / "corpus.jsonl").read_text().splitlines():
        rec = json.loads(line)
        if rec["parse_status"] != "ok" or not isinstance(rec["alias"], dict):
            continue
        service = rec["alias"]["service_name"]
        totals[service] += 1
        if rec["message_id"] in labels:
            content[service, labels[rec["message_id"]]] += 1
        # a service's sector: its first mapped from-domain, else its kind
        if rec["from_root_domain"] in sector_map:
            mapped.setdefault(service, sector_map[rec["from_root_domain"]])
        kind.setdefault(service, rec["alias"]["service_kind"])
    sector_of = {service: mapped.get(service, kind[service])
                 for service in totals}

    cols = ["promotional", "crm", "alert"]
    table, groups = Counter(), {}
    for service in sorted(totals):
        sector = sector_of[service]
        for col in cols:
            table[sector, col] += content[service, col]
        groups.setdefault(sector, []).append(totals[service])
    sectors = sorted(groups)
    observed = [[table[sector, col] for col in cols] for sector in sectors]

    stats = json.loads((out / "sector_stats.json").read_text())
    assert stats["contingency"] == {"rows": sectors, "cols": cols,
                                    "counts": observed}
    chi2, chi2_p, dof, _ = scipy.stats.chi2_contingency(observed,
                                                        correction=False)
    assert stats["chi_squared"]["statistic"] == pytest.approx(chi2, rel=1e-9)
    assert stats["chi_squared"]["p_value"] == pytest.approx(chi2_p, rel=1e-6)
    assert stats["chi_squared"]["df"] == [dof]
    samples = [groups[sector] for sector in sectors]
    anova = scipy.stats.f_oneway(*samples)
    assert stats["anova"]["statistic"] == pytest.approx(anova.statistic,
                                                        rel=1e-9)
    assert stats["anova"]["p_value"] == pytest.approx(anova.pvalue, rel=1e-6)
    kw = scipy.stats.kruskal(*samples)
    assert stats["kruskal_wallis"]["statistic"] == pytest.approx(kw.statistic,
                                                                 rel=1e-9)
    assert stats["kruskal_wallis"]["p_value"] == pytest.approx(kw.pvalue,
                                                               rel=1e-6)
    assert stats["descriptive"]["n"] == len(totals)
    assert stats["descriptive"]["mean"] == pytest.approx(
        sum(totals.values()) / len(totals))


def test_cluster_artifacts_are_consistent(staged):
    out, _ = staged
    loadings = json.loads((out / "loadings.json").read_text())
    rows = (out / "clusters.csv").read_text().splitlines()[1:]
    clusters = {int(line.split(",")[1]) for line in rows}
    assert clusters == set(range(loadings["selected_k"]))
    assert str(loadings["selected_k"]) in loadings["per_k_silhouette"]
    features_rows = (out / "features.csv").read_text().splitlines()[1:]
    assert len(features_rows) == len(rows)


def test_unknown_set_key_is_config_error(synth_corpus, tmp_path):
    result = CliRunner().invoke(
        main, ["ingest", *cli_args(synth_corpus, tmp_path),
               "--set", "nonsense=1"])
    assert result.exit_code == 2
    assert "config error" in result.output


def test_set_without_equals_is_config_error(synth_corpus, tmp_path):
    result = CliRunner().invoke(
        main, ["report", *cli_args(synth_corpus, tmp_path), "--set", "foo"])
    assert result.exit_code == 2
    assert "config error: --set expects KEY=VALUE" in result.output
    assert isinstance(result.exception, SystemExit)  # no uncaught traceback


@pytest.mark.parametrize("key, flag, flag_value, set_value", [
    ("seed", "--seed", 5, 7),
    ("output_dir", "--out", "from-flag", "from-set"),
])
def test_dedicated_flag_beats_set(monkeypatch, key, flag, flag_value,
                                  set_value):
    seen = []
    monkeypatch.setattr("inboxaudit.cli.run_ingest",
                        lambda cfg: (seen.append(cfg) or {}, None))
    runner = CliRunner()
    for args, expected in (
            ([flag, str(flag_value), "--set", f"{key}={set_value}"], flag_value),
            (["--set", f"{key}={set_value}", flag, str(flag_value)], flag_value),
            (["--set", f"{key}={set_value}"], set_value)):
        result = runner.invoke(main, ["ingest", *args])
        assert result.exit_code == 0, result.output
        assert getattr(seen.pop(), key) == expected, args


@pytest.mark.parametrize("seed", ["1_0", "+5", "\u0664\u0662"])
def test_seed_flag_is_ascii_decimal(seed):
    # click's int type would read these as 10, 5 and 42
    result = CliRunner().invoke(main, ["ingest", "--seed", seed])
    assert result.exit_code == 2, result.output
    assert f"config error: bad value for seed: {seed!r}" in result.output


def test_non_utf8_config_file_is_config_error(synth_corpus, tmp_path):
    config = tmp_path / "bad.cfg"
    config.write_bytes(b"seed=7\n# caf\xe9\n")
    result = CliRunner().invoke(
        main, ["ingest", *cli_args(synth_corpus, tmp_path),
               "--config", str(config)])
    assert result.exit_code == 2, result.output
    assert "config error: cannot read config file" in result.output
    assert "bad.cfg" in result.output
    assert isinstance(result.exception, SystemExit)  # no uncaught traceback


def test_removed_pca_variance_threshold_is_config_error(synth_corpus, tmp_path):
    config = tmp_path / "old.cfg"
    config.write_text("seed=7\npca_variance_threshold=0.8\n")
    result = CliRunner().invoke(
        main, ["ingest", *cli_args(synth_corpus, tmp_path),
               "--config", str(config)])
    assert result.exit_code == 2, result.output
    assert "config error: unknown config key: 'pca_variance_threshold'" \
        in result.output


@pytest.mark.parametrize("table", [
    '{"version": 1}',
    '{"classes": {"promotional": {"patterns": [{"pattern": "(unclosed", '
    '"weight": 1}]}}}',
    '{"classes": {"promotional": {"patterns": [{"weight": 1}]}}}',
    '[]',
    '{"classes": {"promotional": {"tokens": {"sale": "heavy"}}}}',
])
def test_malformed_rule_table_is_input_error(synth_corpus, tmp_path, table):
    path = tmp_path / "bad_rules.json"
    path.write_text(table, encoding="utf-8")
    runner = CliRunner()
    assert runner.invoke(
        main, ["ingest", *cli_args(synth_corpus, tmp_path)]).exit_code == 0
    result = runner.invoke(
        main, ["classify", *cli_args(synth_corpus, tmp_path),
               "--set", f"rule_table_path={path}"])
    assert result.exit_code == 3
    assert "input error" in result.output
    assert "bad_rules.json" in result.output
    assert isinstance(result.exception, SystemExit)


def test_bad_coercion_is_config_error(tmp_path):
    result = CliRunner().invoke(
        main, ["ingest", "--out", str(tmp_path), "--set", "seed=tall"])
    assert result.exit_code == 2
    assert "config error: bad value for seed: 'tall'" in result.output


def test_unknown_timezone_is_config_error(synth_corpus, tmp_path):
    result = CliRunner().invoke(
        main, ["ingest", *cli_args(synth_corpus, tmp_path),
               "--set", "audit_timezone=Mars/Olympus"])
    assert result.exit_code == 2
    assert "config error" in result.output
    assert "audit_timezone" in result.output
    assert isinstance(result.exception, SystemExit)  # no uncaught traceback


def test_zero_adapter_timeout_is_config_error(synth_corpus, tmp_path):
    result = CliRunner().invoke(
        main, ["classify", *cli_args(synth_corpus, tmp_path),
               "--set", "classifier=external",
               "--set", "adapter_endpoint=http://127.0.0.1:9/classify",
               "--set", "adapter_timeout_s=0"])
    assert result.exit_code == 2
    assert "adapter_timeout_s" in result.output


@pytest.mark.parametrize("setting", [
    "adapter_timeout_s=inf", "adapter_endpoint=classifier.local/v1"])
def test_unusable_adapter_setting_is_config_error(synth_corpus, tmp_path,
                                                  setting):
    # unchecked, inf overflows in the socket layer with a traceback, and a
    # schemeless endpoint exits 0 with every message fallen back to rules
    result = CliRunner().invoke(
        main, ["classify", *cli_args(synth_corpus, tmp_path),
               "--set", "classifier=external",
               "--set", "adapter_endpoint=http://127.0.0.1:9/classify",
               "--set", setting])
    assert result.exit_code == 2, result.output
    assert f"config error: {setting.partition('=')[0]}" in result.output
    assert isinstance(result.exception, SystemExit)  # no uncaught traceback


def test_missing_corpus_dir_is_input_error(synth_corpus, tmp_path):
    result = CliRunner().invoke(
        main, ["ingest", "--corpus-dir", str(tmp_path / "nope"),
               "--registry", str(synth_corpus.registry_path),
               "--out", str(tmp_path)])
    assert result.exit_code == 3
    assert "input error" in result.output


def test_classify_before_ingest_is_input_error(synth_corpus, tmp_path):
    result = CliRunner().invoke(
        main, ["classify", *cli_args(synth_corpus, tmp_path)])
    assert result.exit_code == 3
    assert "corpus artifact missing" in result.output


def test_analyze_before_classify_is_input_error(staged, synth_corpus,
                                                tmp_path):
    out, _ = staged
    shutil.copy(out / "corpus.jsonl", tmp_path / "corpus.jsonl")
    result = CliRunner().invoke(
        main, ["analyze", *cli_args(synth_corpus, tmp_path)])
    assert result.exit_code == 3
    assert "classifications artifact missing" in result.output


def test_corrupt_classifications_is_input_error(staged, synth_corpus, tmp_path):
    out, _ = staged
    shutil.copy(out / "corpus.jsonl", tmp_path / "corpus.jsonl")
    (tmp_path / "classifications.jsonl").write_text('{"message_id": "x"}\n')
    result = CliRunner().invoke(
        main, ["analyze", *cli_args(synth_corpus, tmp_path)])
    assert result.exit_code == 3
    assert "bad classification line" in result.output


@pytest.mark.parametrize("line", ["[1]", "5"])
def test_non_object_corpus_line_is_input_error(synth_corpus, tmp_path, line):
    (tmp_path / "corpus.jsonl").write_text(line + "\n")
    result = CliRunner().invoke(
        main, ["classify", *cli_args(synth_corpus, tmp_path)])
    assert result.exit_code == 3, result.output
    assert "corpus.jsonl:1: bad corpus line" in result.output


@pytest.mark.parametrize("line", ["[1]", "5"])
def test_non_object_classification_line_is_input_error(staged, synth_corpus,
                                                       tmp_path, line):
    out, _ = staged
    shutil.copy(out / "corpus.jsonl", tmp_path / "corpus.jsonl")
    (tmp_path / "classifications.jsonl").write_text(line + "\n")
    result = CliRunner().invoke(
        main, ["analyze", *cli_args(synth_corpus, tmp_path)])
    assert result.exit_code == 3, result.output
    assert "classifications.jsonl:1: bad classification line" in result.output


@pytest.mark.parametrize("edit", [
    lambda entry: entry.update(extra=1),
    lambda entry: entry.pop("spf"),
    lambda entry: entry["alias"].update(extra=1),
    lambda entry: entry.update(sender_ip=7),
    lambda entry: entry.update(received_utc=None),
    lambda entry: entry.update(alias="nobody"),
    lambda entry: entry.update(received_utc=entry["received_utc"][:19]),
    lambda entry: entry["alias"].update(service_name=5),
    lambda entry: entry["alias"].update(index=7.0),
    lambda entry: entry.update(spf="yes"),
    lambda entry: entry.update(parse_status="bogus", received_utc=None),
    lambda entry: entry.update(sender_ip="not-an-ip"),
    lambda entry: entry.update(sender_ip="2001:DB8::1"),
    lambda entry: entry.update(received_local=entry["received_utc"]),
    lambda entry: entry.update(received_utc=datetime.fromisoformat(
        entry["received_utc"]).astimezone(timezone(timedelta(hours=9)))
        .isoformat()),
], ids=["unknown_key", "missing_key", "unknown_alias_key", "number_sender_ip",
        "undated_ok_record", "string_alias", "date_without_offset",
        "number_service_name", "float_alias_index", "unknown_spf_verdict",
        "unknown_parse_status", "non_ip_sender_ip", "non_canonical_sender_ip",
        "legacy_received_local", "non_utc_received_utc"])
def test_stale_corpus_line_is_input_error(staged, synth_corpus, tmp_path, edit):
    out, _ = staged
    lines = (out / "corpus.jsonl").read_text(encoding="utf-8").splitlines()
    entries = [json.loads(line) for line in lines]
    i = next(i for i, entry in enumerate(entries)
             if isinstance(entry["alias"], dict))
    edit(entries[i])
    lines[i] = json.dumps(entries[i])
    (tmp_path / "corpus.jsonl").write_text("\n".join(lines) + "\n",
                                           encoding="utf-8")
    result = CliRunner().invoke(
        main, ["classify", *cli_args(synth_corpus, tmp_path)])
    assert result.exit_code == 3, result.output
    assert f"corpus.jsonl:{i + 1}: bad corpus line" in result.output


def test_staged_analyze_reads_its_own_timezone(staged, synth_corpus, tmp_path):
    """Ingest and classify in UTC, then analyze in New York: the same ten
    artifacts as report in New York, and a heatmap unlike the UTC one."""
    out, _ = staged
    zone = ["--set", "audit_timezone=America/New_York"]
    staged_ny, report_ny = tmp_path / "staged", tmp_path / "report"
    staged_ny.mkdir()
    for name in ("corpus.jsonl", "classifications.jsonl"):
        shutil.copy(out / name, staged_ny / name)
    runner = CliRunner()
    for command, where in (("analyze", staged_ny), ("report", report_ny)):
        result = runner.invoke(main, [command, *cli_args(synth_corpus, where),
                                      *zone])
        assert result.exit_code == 0, result.output
    for name in ANALYZE_ARTIFACTS:
        assert (staged_ny / name).read_bytes() == \
            (report_ny / name).read_bytes(), name
    assert (staged_ny / "heatmap.csv").read_bytes() != \
        (out / "heatmap.csv").read_bytes()


@pytest.mark.parametrize("name", ["corpus.jsonl", "classifications.jsonl"])
def test_repeated_message_id_is_input_error(staged, synth_corpus, tmp_path,
                                            name):
    out, _ = staged
    for artifact in ("corpus.jsonl", "classifications.jsonl"):
        shutil.copy(out / artifact, tmp_path / artifact)
    lines = (out / name).read_text(encoding="utf-8").splitlines()
    message_id = json.loads(lines[2])["message_id"]
    (tmp_path / name).write_text("\n".join([*lines, lines[2]]) + "\n",
                                 encoding="utf-8")
    result = CliRunner().invoke(
        main, ["analyze", *cli_args(synth_corpus, tmp_path)])
    assert result.exit_code == 3, result.output
    assert (f"{name}: lines 3 and {len(lines) + 1}: repeated message_id "
            f"{message_id!r}") in result.output


def test_labels_of_another_corpus_are_input_error(staged, tmp_path):
    """Corpus A ingested and classified, then corpus B ingested into the
    same output directory: analyze must not count B with A's labels."""
    out, _ = staged
    shutil.copy(out / "classifications.jsonl", tmp_path / "classifications.jsonl")
    other = make_synthetic_corpus(tmp_path / "b", seed=2, n_days=90)
    runner = CliRunner()
    ingest = runner.invoke(main, ["ingest", *cli_args(other, tmp_path)])
    assert ingest.exit_code == 0, ingest.output
    result = runner.invoke(main, ["analyze", *cli_args(other, tmp_path)])
    assert result.exit_code == 3, result.output
    assert "classifications.jsonl does not match corpus.jsonl" in result.output


def test_unknown_classification_key_is_input_error(staged, synth_corpus,
                                                   tmp_path):
    out, _ = staged
    shutil.copy(out / "corpus.jsonl", tmp_path / "corpus.jsonl")
    lines = (out / "classifications.jsonl").read_text(
        encoding="utf-8").splitlines()
    lines[0] = json.dumps({**json.loads(lines[0]), "extra": 1})
    (tmp_path / "classifications.jsonl").write_text("\n".join(lines) + "\n",
                                                    encoding="utf-8")
    result = CliRunner().invoke(
        main, ["analyze", *cli_args(synth_corpus, tmp_path)])
    assert result.exit_code == 3, result.output
    assert "classifications.jsonl:1: bad classification line" in result.output


@pytest.mark.parametrize("values", [
    {"confidence": True},
    {"retries": "2"},
    {"flags": "xy"},
], ids=["bool_confidence", "string_retries", "string_flags"])
def test_bad_classification_value_is_input_error(staged, synth_corpus,
                                                 tmp_path, values):
    out, _ = staged
    shutil.copy(out / "corpus.jsonl", tmp_path / "corpus.jsonl")
    lines = (out / "classifications.jsonl").read_text(
        encoding="utf-8").splitlines()
    lines[1] = json.dumps({**json.loads(lines[1]), **values})
    (tmp_path / "classifications.jsonl").write_text("\n".join(lines) + "\n",
                                                    encoding="utf-8")
    result = CliRunner().invoke(
        main, ["analyze", *cli_args(synth_corpus, tmp_path)])
    assert result.exit_code == 3, result.output
    assert "classifications.jsonl:2: bad classification line" in result.output


@pytest.mark.parametrize("key,text", [
    ("ip2asn_path", "1.2.3.0/24\t1_000\tORG\n"),
    ("abuse_path", "167.89.1.1,+5\n"),
], ids=["asn_underscore", "signed_report_count"])
def test_non_decimal_snapshot_number_is_input_error(staged, synth_corpus,
                                                    tmp_path, key, text):
    out, _ = staged
    for name in ("corpus.jsonl", "classifications.jsonl"):
        shutil.copy(out / name, tmp_path / name)
    snapshot = tmp_path / "snapshot.txt"
    snapshot.write_text(text, encoding="utf-8")
    result = CliRunner().invoke(main, ["analyze",
                                       *cli_args(synth_corpus, tmp_path),
                                       "--set", f"{key}={snapshot}"])
    assert result.exit_code == 3, result.output
    assert "snapshot.txt: row 1:" in result.output


@pytest.mark.parametrize("key,text", [
    ("sector_map_path", "root_domain,sector\nfoo.com\n"),
    ("org_map_path", "service_name,accepted_domains,"
                     "accepted_asn_org_substrings\nshopzilla\n"),
    ("table", "root_domain,sector,cluster,total,promotional,crm,alert\n"
              "foo.com,Retail,0\n"),
], ids=["sector_map", "org_map", "fixture_table"])
def test_short_csv_row_is_input_error(staged, synth_corpus, tmp_path, key,
                                      text):
    short = tmp_path / "short.csv"
    short.write_text(text)
    if key == "table":
        args = ["fixture-check", "--table", str(short)]
    else:
        out, _ = staged
        for name in ("corpus.jsonl", "classifications.jsonl"):
            shutil.copy(out / name, tmp_path / name)
        args = ["analyze", *cli_args(synth_corpus, tmp_path),
                "--set", f"{key}={short}"]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 3, result.output
    assert "input error" in result.output
    assert "row 2" in result.output
    assert isinstance(result.exception, SystemExit)  # no uncaught traceback


_TABLE_HEADERS = {
    "registry_path": b"local_part,index,service_name,service_kind,"
                     b"registration_date\n",
    "org_map_path": b"service_name,accepted_domains,"
                    b"accepted_asn_org_substrings\n",
    "sector_map_path": b"root_domain,sector\n",
    "ip2asn_path": b"",
    "abuse_path": b"",
    "table": b"root_domain,sector,cluster,total,promotional,crm,alert\n",
}


def invoke_with_input(staged, synth_corpus, tmp_path, key, path):
    """Run the command that reads input ``key``, with ``path`` as that input."""
    if key == "table":
        return CliRunner().invoke(main, ["fixture-check", "--table", str(path)])
    if key == "registry_path":
        return CliRunner().invoke(main, ["ingest",
                                         *cli_args(synth_corpus, tmp_path),
                                         "--registry", str(path)])
    out, _ = staged
    for name in ("corpus.jsonl", "classifications.jsonl"):
        shutil.copy(out / name, tmp_path / name)
    return CliRunner().invoke(main, ["analyze", *cli_args(synth_corpus, tmp_path),
                                     "--set", f"{key}={path}"])


@pytest.mark.parametrize("key", list(_TABLE_HEADERS))
@pytest.mark.parametrize("body,names_row", [
    (b'"' + b"x" * 200_000 + b'",1,ORG\n', True),
    (b"caf\xe9.example,1,ORG\n", False),
], ids=["oversized_cell", "non_utf8"])
def test_unreadable_input_cell_is_input_error(staged, synth_corpus, tmp_path,
                                              key, body, names_row):
    bad = tmp_path / "unreadable.csv"
    bad.write_bytes(_TABLE_HEADERS[key] + body)
    result = invoke_with_input(staged, synth_corpus, tmp_path, key, bad)
    assert result.exit_code == 3, result.output
    assert "input error" in result.output
    assert "unreadable.csv" in result.output
    if names_row:
        row = 1 if not _TABLE_HEADERS[key] else 2
        assert f"row {row}:" in result.output
    assert isinstance(result.exception, SystemExit)  # no uncaught traceback


@pytest.mark.parametrize("key", ["provider_list_path", "cloud_list_path"])
def test_non_utf8_provider_list_is_input_error(staged, synth_corpus, tmp_path,
                                               key):
    bad = tmp_path / "unreadable.txt"
    bad.write_bytes(b"sendgrid\ncaf\xe9\n")
    result = invoke_with_input(staged, synth_corpus, tmp_path, key, bad)
    assert result.exit_code == 3, result.output
    assert "input error" in result.output
    assert "unreadable.txt: not UTF-8" in result.output
    assert isinstance(result.exception, SystemExit)


@pytest.mark.parametrize("key,text", [
    ("org_map_path", "service_name,accepted_domains,accepted_asn_org_substrings\n"
                     "wishmart,wishmart.com,wishmart networks\n"
                     "Wishmart,wishmart-mail.com,\n"),
    ("sector_map_path", "root_domain,sector\n"
                        "shopzilla.com,E-tailer\n"
                        "Shopzilla.com,Financials\n"),
], ids=["org_map", "sector_map"])
def test_repeated_table_key_is_input_error(staged, synth_corpus, tmp_path, key,
                                           text):
    repeated = tmp_path / "repeated.csv"
    repeated.write_text(text, encoding="utf-8")
    result = invoke_with_input(staged, synth_corpus, tmp_path, key, repeated)
    assert result.exit_code == 3, result.output
    assert "repeated.csv: rows 2 and 3: repeated" in result.output
    assert isinstance(result.exception, SystemExit)


@pytest.mark.parametrize("key", ["registry_path", "org_map_path",
                                 "sector_map_path", "table"])
def test_table_without_header_is_input_error(staged, synth_corpus, tmp_path,
                                             key):
    # a zero-byte registry used to pass with every message unmatched
    empty = tmp_path / "empty.csv"
    empty.write_bytes(b"")
    result = invoke_with_input(staged, synth_corpus, tmp_path, key, empty)
    assert result.exit_code == 3, result.output
    assert "empty.csv: missing columns" in result.output
    assert isinstance(result.exception, SystemExit)


def tiny_corpus_args(tmp_path, mails):
    """One alias per service and one EML file per (service, day) in
    ``mails``, all alike but for sender and date; returns CLI arguments."""
    from gen import AUDIT_DOMAIN, TRUSTED_MX, render_eml

    eml_dir = tmp_path / "eml"
    eml_dir.mkdir()
    local_parts = {service: f"{service}{i:03d}" for i, service
                   in enumerate(sorted({service for service, _ in mails}), 1)}
    registry = tmp_path / "registry.csv"
    registry.write_text(
        "local_part,index,service_name,service_kind,registration_date\n"
        + "".join(f"{local},{local[-3:]},{service},online_service,2023-12-01\n"
                  for service, local in local_parts.items()))
    for service, day in mails:
        stamp = datetime(2024, 3, 4, 10, tzinfo=timezone.utc) + timedelta(days=day)
        raw = render_eml(to_addr=f"{local_parts[service]}@{AUDIT_DOMAIN}",
                         from_addr=f"mail@{service}.example",
                         date=stamp, subject="Weekly sale, 20% off",
                         body="Shop the sale.",
                         message_id=f"{service}-{day}@{service}.example",
                         sender_ip="198.51.100.4",
                         sender_host=f"out.{service}.example",
                         spf="pass", dkim="pass")
        (eml_dir / f"{service}-{day}.eml").write_bytes(raw)
    return ["--corpus-dir", str(eml_dir), "--registry", str(registry),
            "--out", str(tmp_path / "out"), "--set", f"trusted_mx={TRUSTED_MX}"]


def test_short_series_is_infeasible(tmp_path):
    # three days of mail: ingestable, but far too short for a spectrum
    base = tiny_corpus_args(tmp_path, [("tinyshop", day) for day in range(3)])
    runner = CliRunner()
    ingest = runner.invoke(main, ["ingest", *base])
    assert ingest.exit_code == 0, ingest.output
    classify = runner.invoke(main, ["classify", *base])
    assert classify.exit_code == 0, classify.output
    analyze = runner.invoke(main, ["analyze", *base])
    assert analyze.exit_code == 4
    assert "analysis infeasible" in analyze.output
    assert "need >= 16 days" in analyze.output


def test_identical_companies_are_infeasible(tmp_path):
    # two services, one alike mail each, three weeks apart: a long enough
    # series, but every company has the same features
    base = tiny_corpus_args(tmp_path, [("tinyshop", 0), ("tinybank", 21)])
    result = CliRunner().invoke(main, ["report", *base])
    assert result.exit_code == 4, result.output
    assert "analysis infeasible: all 2 companies have identical features" \
        in result.output
    assert isinstance(result.exception, SystemExit)


def test_failed_analyze_leaves_artifacts_unchanged(staged, tmp_path):
    """Corpus A analysed, then a corpus B too short for a spectrum staged
    into the same output directory: B's analyze rewrites none of A's files."""
    out, _ = staged
    (tmp_path / "out").mkdir()
    for name in ANALYZE_ARTIFACTS:
        shutil.copy(out / name, tmp_path / "out" / name)
    base = tiny_corpus_args(tmp_path, [("tinyshop", day) for day in range(4)])
    runner = CliRunner()
    for stage in ("ingest", "classify"):
        result = runner.invoke(main, [stage, *base])
        assert result.exit_code == 0, result.output
    result = runner.invoke(main, ["analyze", *base])
    assert result.exit_code == 4, result.output
    for name in ANALYZE_ARTIFACTS:
        assert (tmp_path / "out" / name).read_bytes() == \
            (out / name).read_bytes(), name


def test_fixture_check_reports_and_fails(tmp_path):
    result = CliRunner().invoke(main, ["fixture-check"])
    assert result.exit_code == 1
    assert "moment convention: sample" in result.output
    assert "PASS chi2" in result.output
    assert "PASS top10_share" in result.output
    assert "FAIL total_volume" in result.output
    assert "checks failed" in result.output

    population = CliRunner().invoke(main,
                                    ["fixture-check", "--convention",
                                     "population"])
    assert "moment convention: population" in population.output
    assert population.exit_code in (0, 1)

    missing = CliRunner().invoke(main, ["fixture-check", "--table",
                                        str(tmp_path / "none.csv")])
    assert missing.exit_code == 3


def test_make_corpus_script_runs(tmp_path):
    result = subprocess.run(
        [sys.executable, "scripts/synth.py", str(tmp_path),
         "--seed", "1", "--days", "20"],
        cwd=Path(__file__).resolve().parents[1],
        capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    summary = json.loads(result.stdout)
    assert summary["grid_messages"] == 500
    assert (tmp_path / "main" / "eml").is_dir()
    assert (tmp_path / "grid" / "expectations.jsonl").is_file()


def test_artifact_digests_without_inboxaudit_prints_a_hint():
    # -I ignores PYTHONPATH and -S site-packages: inboxaudit cannot import
    result = subprocess.run(
        [sys.executable, "-I", "-S", "scripts/artifact_digests.py"],
        cwd=Path(__file__).resolve().parents[1],
        capture_output=True, text=True)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.splitlines() == [
        "artifact_digests.py: cannot import inboxaudit; "
        "set PYTHONPATH to a checkout's src"]


PINNED_DIGESTS = Path(__file__).resolve().parent / "data" / \
    "artifact_digests_seed101.txt"


def test_artifact_digests_match_pinned_file():
    """Every artifact of the reference runs has the sha256 pinned in
    ``tests/data``, written by ``artifact_digests.py --seed 101``.

    The file was made with CPython 3.11.7 (GCC 12.2.0, x86_64) and numpy
    2.4.6 (scipy-openblas 0.3.31). Other numpy or BLAS builds may round
    the PCA, K-Means or FFT results differently and so change the analyze
    lines; a change that alters an artifact on purpose rewrites the file
    and names the lines that moved."""
    script = Path(__file__).resolve().parents[1] / "scripts" / \
        "artifact_digests.py"
    spec = importlib.util.spec_from_file_location("artifact_digests", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.digest_lines(101) == PINNED_DIGESTS.read_text(
        encoding="utf-8").splitlines()


class _FailingHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        self.rfile.read(int(self.headers.get("Content-Length", 0)))
        self.send_response(500)
        self.end_headers()

    def log_message(self, *args):
        pass


def test_external_classifier_falls_back_via_cli(short_corpus, tmp_path):
    server = ThreadingHTTPServer(("127.0.0.1", 0), _FailingHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        endpoint = f"http://127.0.0.1:{server.server_address[1]}/classify"
        runner = CliRunner()
        ingest = runner.invoke(main,
                               ["ingest", *cli_args(short_corpus, tmp_path)])
        assert ingest.exit_code == 0, ingest.output
        classify = runner.invoke(main, [
            "classify", *cli_args(short_corpus, tmp_path),
            "--set", "classifier=external",
            "--set", f"adapter_endpoint={endpoint}",
            "--set", "adapter_retries=0",
            "--set", "adapter_timeout_s=5",
        ])
        assert classify.exit_code == 0, classify.output
    finally:
        server.shutdown()
        server.server_close()
    summary = json.loads((tmp_path / "classification_summary.json").read_text())
    assert summary["classifier"] == "external"
    assert summary["classified"] > 0
    assert summary["adapter_fallbacks"] == summary["classified"]
    for line in (tmp_path / "classifications.jsonl").read_text().splitlines():
        entry = json.loads(line)
        assert entry["source"] == "rules"
        assert "adapter_fallback" in entry["flags"]
