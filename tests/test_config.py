"""Config file parsing, override precedence, coercion, and validation."""

import pytest

from inboxaudit.config import (AuditConfig, ConfigError, build_config,
                               parse_config_file)


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
    assert cfg.moment_convention == "sample"


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
        "peak_sigma": "2.5",
        "k_max": "6",
    })
    assert cfg.seed == 99 and isinstance(cfg.seed, int)
    assert cfg.peak_sigma == 2.5
    assert cfg.k_max == 6


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
    ({"moment_convention": "excess"}, "moment_convention"),
    ({"k_min": "5", "k_max": "3"}, "k range"),
    ({"k_min": "1"}, "k range"),
    ({"kmeans_restarts": "0"}, "restarts"),
    ({"peak_sigma": "0"}, "peak_sigma"),
    ({"decomposition_period": "1"}, "decomposition_period"),
    ({"pca_variance_threshold": "1.2"}, "pca_variance_threshold"),
    ({"audit_timezone": "Mars/Olympus"}, "audit_timezone"),
    ({"audit_timezone": "../etc/localtime"}, "audit_timezone"),
    ({"seed": "-1"}, "seed"),
    ({"pca_components": "-1"}, "pca_components"),
    ({"pca_components": "0"}, "pca_components"),
    ({"trusted_mx": ""}, "trusted_mx"),
])
def test_validation_rejections(values, needle):
    with pytest.raises(ConfigError, match=needle):
        build_config(file_values=values)


def test_validate_direct():
    cfg = AuditConfig(classifier="external",
                      adapter=type(AuditConfig().adapter)(endpoint="http://x"))
    cfg.validate()  # endpoint present, so external is fine


@pytest.mark.parametrize("values,needle", [
    ({"adapter_timeout_s": "0"}, "adapter_timeout_s"),
    ({"adapter_timeout_s": "-1.5"}, "adapter_timeout_s"),
    ({"adapter_retries": "-1"}, "adapter_retries"),
    ({"adapter_pool_size": "0"}, "adapter_pool_size"),
])
def test_adapter_setting_rejections(values, needle):
    with pytest.raises(ConfigError, match=needle):
        build_config(file_values=values)
