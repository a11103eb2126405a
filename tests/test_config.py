"""Config file parsing, override precedence, coercion, and validation."""

import re
from pathlib import Path

import pytest

from inboxaudit.config import (_ADAPTER_FIELDS, _SCALAR_FIELDS, AuditConfig,
                               ConfigError, build_config, parse_config_file)

README = Path(__file__).resolve().parents[1] / "README.md"


def test_parse_config_file(tmp_path):
    path = tmp_path / "audit.conf"
    path.write_text(
        "# run settings\n"
        "seed = 7\n"
        "\n"
        "corpus_dir=./mail   # relative is fine\n"
        "trusted_mx = mx.example.net\n")
    assert parse_config_file(path) == {
        "seed": "7",
        "corpus_dir": "./mail",
        "trusted_mx": "mx.example.net",
    }


def test_parse_config_file_errors(tmp_path):
    path = tmp_path / "bad.conf"
    path.write_text("just words\n")
    with pytest.raises(ConfigError, match="bad.conf:1"):
        parse_config_file(path)
    path.write_text("= value\n")
    with pytest.raises(ConfigError, match="empty key"):
        parse_config_file(path)
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config_file(tmp_path / "missing.conf")


def test_defaults_validate():
    cfg = build_config()
    assert cfg.seed == 42
    assert cfg.classifier == "rules"
    assert cfg.adapter.model == "llama3.1-8b-instruct"


def test_overrides_beat_file_values():
    cfg = build_config(file_values={"seed": "7", "output_dir": "a"},
                       overrides={"seed": 13})
    assert cfg.seed == 13
    assert cfg.output_dir == "a"


def test_none_overrides_are_ignored():
    cfg = build_config(file_values={"seed": "7"}, overrides={"seed": None})
    assert cfg.seed == 7


def test_string_coercion():
    cfg = build_config(file_values={
        "seed": "99",
        "adapter_pool_size": "6",
        "adapter_timeout_s": "2.5",
    })
    assert cfg.seed == 99 and isinstance(cfg.seed, int)
    assert cfg.adapter.pool_size == 6 and isinstance(cfg.adapter.pool_size, int)
    assert cfg.adapter.timeout_s == 2.5


def test_adapter_prefix_routing():
    cfg = build_config(file_values={
        "adapter_endpoint": "http://localhost:8000/v1",
        "adapter_timeout_s": "5.5",
        "adapter_retries": "1",
        "classifier": "external",
    })
    assert cfg.adapter.endpoint == "http://localhost:8000/v1"
    assert cfg.adapter.timeout_s == 5.5
    assert cfg.adapter.retries == 1


def test_unknown_key_fails_loudly():
    with pytest.raises(ConfigError, match="unknown config key"):
        build_config(file_values={"seeed": "7"})


def test_bad_coercion_is_config_error():
    with pytest.raises(ConfigError, match="bad value for seed"):
        build_config(file_values={"seed": "seven"})


@pytest.mark.parametrize("values,needle", [
    ({"classifier": "psychic"}, "classifier"),
    ({"classifier": "external"}, "adapter_endpoint"),
    ({"pca_variance_threshold": "1.2"}, "pca_variance_threshold"),
    ({"audit_timezone": "Mars/Olympus"}, "audit_timezone"),
    ({"audit_timezone": "../etc/localtime"}, "audit_timezone"),
    ({"seed": "-1"}, "seed"),
    ({"trusted_mx": ""}, "trusted_mx"),
    # the socket layer cannot take these; none of them opens a socket
    ({"adapter_timeout_s": "nan"}, "adapter_timeout_s"),
    ({"adapter_timeout_s": "inf"}, "adapter_timeout_s"),
    ({"adapter_timeout_s": "1e12"}, "adapter_timeout_s"),
    # requests would fail every attempt, and each message fall back to rules
    ({"classifier": "external", "adapter_endpoint": "classifier.local/v1"},
     "adapter_endpoint"),
    ({"classifier": "external", "adapter_endpoint": "ftp://x"},
     "adapter_endpoint"),
    ({"classifier": "external", "adapter_endpoint": "http://"},
     "adapter_endpoint"),
    ({"classifier": "external", "adapter_endpoint": "http://x:99999/v1"},
     "adapter_endpoint"),
    # int() alone would read these as 10, 42 and 16
    ({"seed": "1_0"}, "seed"),
    ({"seed": "\u0664\u0662"}, "seed"),
    ({"adapter_pool_size": "1_6"}, "adapter_pool_size"),
    ({"adapter_retries": "+2"}, "adapter_retries"),
], ids=[  # each case keeps the name it had when the list was longer
    "values0-classifier", "values1-adapter_endpoint",
    "values8-pca_variance_threshold", "values9-audit_timezone",
    "values10-audit_timezone", "values11-seed", "values14-trusted_mx",
    "timeout-nan", "timeout-inf", "timeout-1e12", "endpoint-no-scheme",
    "endpoint-ftp", "endpoint-no-host", "endpoint-bad-port",
    "seed-underscore", "seed-arabic-indic", "pool-underscore", "retries-sign"])
def test_validation_rejections(values, needle):
    with pytest.raises(ConfigError, match=needle):
        build_config(file_values=values)


@pytest.mark.parametrize("key", [
    "peak_sigma", "decomposition_period", "pca_components", "k_min", "k_max",
    "kmeans_restarts", "moment_convention",
])
def test_fixed_analysis_parameters_are_unknown_keys(key):
    # the analysis method's values live in the functions that use them
    with pytest.raises(ConfigError, match=f"unknown config key: '{key}'"):
        build_config(file_values={key: "2"})


def test_validate_direct():
    cfg = AuditConfig(classifier="external",
                      adapter=type(AuditConfig().adapter)(endpoint="http://x"))
    cfg.validate()  # endpoint present, so external is fine


@pytest.mark.parametrize("endpoint, timeout", [
    ("https://classifier.example:8443/v1", "86400"),
    ("HTTP://[::1]/classify", "0.001"),
])
def test_adapter_limits_accept(endpoint, timeout):
    cfg = build_config(file_values={"classifier": "external",
                                    "adapter_endpoint": endpoint,
                                    "adapter_timeout_s": timeout})
    assert cfg.adapter.timeout_s == float(timeout)


@pytest.mark.parametrize("values,needle", [
    ({"adapter_timeout_s": "0"}, "adapter_timeout_s"),
    ({"adapter_timeout_s": "-1.5"}, "adapter_timeout_s"),
    ({"adapter_retries": "-1"}, "adapter_retries"),
    ({"adapter_pool_size": "0"}, "adapter_pool_size"),
])
def test_adapter_setting_rejections(values, needle):
    with pytest.raises(ConfigError, match=needle):
        build_config(file_values=values)


def test_readme_config_table_names_every_key():
    section = README.read_text(encoding="utf-8").split("### Config keys", 1)[1]
    table = section.strip().split("\n\n", 1)[0]
    first_cells = [line.split("|")[1] for line in table.splitlines()[2:]]
    documented = re.findall(r"`([a-z0-9_]+)`", "".join(first_cells))
    assert sorted(documented) == sorted([*_SCALAR_FIELDS, *_ADAPTER_FIELDS])
