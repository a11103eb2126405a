"""Command line entry points: audit ingest|classify|analyze|fixture-check|report."""

from __future__ import annotations

import logging
import sys

import click

from .cluster import InsufficientCompaniesError
from .config import AuditConfig, ConfigError, build_config, parse_config_file
from .fixture import load_fixture_table, run_fixture_checks
from .pipeline import run_analyze, run_classify, run_ingest, run_report
from .stats.core import InsufficientDataError
from .temporal import InsufficientSeriesError

EXIT_CONFIG = 2
EXIT_INPUT = 3
EXIT_INFEASIBLE = 4

_INFEASIBLE = (InsufficientDataError, InsufficientSeriesError,
               InsufficientCompaniesError)
_INPUT = (OSError, ValueError)


def _build(config_path: str | None, **overrides) -> AuditConfig:
    file_values = parse_config_file(config_path) if config_path else {}
    return build_config(file_values, overrides)


def _checked(fn, *args, **kwargs):
    """``fn(*args, **kwargs)``; too little data exits 4, a bad input 3."""
    try:
        return fn(*args, **kwargs)
    except _INFEASIBLE as exc:
        click.echo(f"analysis infeasible: {exc}", err=True)
        sys.exit(EXIT_INFEASIBLE)
    except _INPUT as exc:
        click.echo(f"input error: {exc}", err=True)
        sys.exit(EXIT_INPUT)


def _run(stage, cfg) -> None:
    for key, value in _checked(stage, cfg).items():
        if not isinstance(value, (dict, list)):
            click.echo(f"{key}: {value}")


def _common_options(fn):
    fn = click.option("--config", "config_path", type=click.Path(),
                      default=None, help="key=value config file")(fn)
    # a str, so that build_config reads it as ASCII decimal like --set seed=
    fn = click.option("--seed", metavar="N", help="RNG seed override")(fn)
    fn = click.option("--out", "output_dir", type=click.Path(), default=None,
                      help="output directory override")(fn)
    fn = click.option("--set", "extra", multiple=True, metavar="KEY=VALUE",
                      help="override any config key (repeatable)")(fn)
    return fn


def _merge_extras(extra: tuple[str, ...], flags: dict) -> dict:
    """``--set`` values, then the dedicated flags that were given: a
    dedicated flag wins over ``--set`` for the same key."""
    overrides = {}
    for item in extra:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        overrides[key.strip()] = value.strip()
    overrides.update((k, v) for k, v in flags.items() if v is not None)
    return overrides


@click.group()
@click.option("-v", "--verbose", is_flag=True, help="debug logging")
def main(verbose: bool) -> None:
    """Inbox privacy auditing toolkit."""
    logging.basicConfig(
        level=logging.DEBUG if verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s")


def _stage_command(name: str, stage, help_text: str):
    @main.command(name, help=help_text)
    @_common_options
    @click.option("--corpus-dir", default=None, type=click.Path(),
                  help="EML directory")
    @click.option("--registry", "registry_path", default=None,
                  type=click.Path(), help="alias registry CSV")
    def cmd(config_path, seed, output_dir, extra, corpus_dir, registry_path):
        try:
            overrides = _merge_extras(extra, {
                "seed": seed, "output_dir": output_dir,
                "corpus_dir": corpus_dir, "registry_path": registry_path,
            })
            cfg = _build(config_path, **overrides)
        except ConfigError as exc:
            click.echo(f"config error: {exc}", err=True)
            sys.exit(EXIT_CONFIG)
        _run(stage, cfg)
    return cmd


_stage_command("ingest", lambda cfg: run_ingest(cfg)[0],
               "Parse the EML corpus into corpus.jsonl plus a report.")
_stage_command("classify", lambda cfg: run_classify(cfg)[0],
               "Classify parsed mail content (rules or external adapter).")
_stage_command("analyze", lambda cfg: run_analyze(cfg)[0],
               "Emit the analysis artifact set from corpus.jsonl and "
               "classifications.jsonl.")
_stage_command("report", run_report,
               "Run ingest, classify and analyze, then write report.json.")


@main.command("fixture-check")
@click.option("--table", "table_path", type=click.Path(), default=None,
              help="alternative fixture table CSV")
@click.option("--convention", type=click.Choice(["sample", "population"]),
              default="sample", show_default=True,
              help="moment convention for skewness/kurtosis")
def fixture_check(table_path: str | None, convention: str) -> None:
    """Recompute published statistics from the bundled table."""
    rows = _checked(load_fixture_table, table_path)
    results = _checked(run_fixture_checks, rows, convention=convention)

    click.echo(f"fixture rows: {len(rows)}; moment convention: {convention}")
    failed = 0
    for res in results:
        status = "PASS" if res["ok"] else "FAIL"
        if not res["ok"]:
            failed += 1
        line = (f"{status} {res['check']}: expected {res['expected']} "
                f"(tolerance {res['tolerance']}), got {res['actual']:.6g}")
        if res.get("note"):
            line += f" [{res['note']}]"
        click.echo(line)
    if failed:
        click.echo(f"{failed} of {len(results)} checks failed", err=True)
        sys.exit(1)
    click.echo(f"all {len(results)} checks passed")


if __name__ == "__main__":
    main()
