"""Unit tests for global configuration and seeding."""

import numpy as np

from repro.config import ReproConfig, cpu_count, get_config, rng, set_seed


class TestStreams:
    def test_same_stream_same_values(self):
        a = rng("stream-a").standard_normal(4)
        b = rng("stream-a").standard_normal(4)
        assert np.allclose(a, b)

    def test_different_streams_differ(self):
        a = rng("stream-a").standard_normal(4)
        b = rng("stream-b").standard_normal(4)
        assert not np.allclose(a, b)

    def test_seed_changes_streams(self):
        original = get_config().seed
        try:
            set_seed(1)
            a = rng("s").standard_normal(4)
            set_seed(2)
            b = rng("s").standard_normal(4)
            assert not np.allclose(a, b)
        finally:
            set_seed(original)

    def test_stream_seed_deterministic(self):
        cfg = ReproConfig(seed=5)
        assert cfg.stream_seed("x") == cfg.stream_seed("x")
        assert cfg.stream_seed("x") != cfg.stream_seed("y")

    def test_cpu_count_positive(self):
        assert cpu_count() >= 1

    def test_cpu_count_override(self):
        cfg = get_config()
        original = cfg.default_threads
        try:
            cfg.default_threads = 3
            assert cpu_count() == 3
        finally:
            cfg.default_threads = original


class TestEnvOverrides:
    def test_malformed_env_values_do_not_break_import(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-c", "import repro; print('imported-ok')"],
            capture_output=True,
            text=True,
            env={
                "PYTHONPATH": "src",
                "REPRO_THREADS": "four",
                "REPRO_BUFFER_BUDGET_MB": "1gb",
            },
        )
        assert proc.returncode == 0, proc.stderr
        assert "imported-ok" in proc.stdout

    def test_valid_env_values_apply(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "import repro; c = repro.get_config(); "
                "print(c.default_threads, c.default_buffer_budget_bytes)",
            ],
            capture_output=True,
            text=True,
            env={
                "PYTHONPATH": "src",
                "REPRO_THREADS": "2",
                "REPRO_BUFFER_BUDGET_MB": "0.5",
            },
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["2", "524288"]

    def test_precision_env_applies(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "import repro; c = repro.get_config(); "
                "print(c.default_precision, c.default_rerank_multiple)",
            ],
            capture_output=True,
            text=True,
            env={
                "PYTHONPATH": "src",
                "REPRO_PRECISION": "int8",
                "REPRO_RERANK_MULTIPLE": "8",
            },
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["int8", "8"]

    def test_unknown_precision_warns_and_falls_back(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "import repro; print(repro.get_config().default_precision)",
            ],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": "src", "REPRO_PRECISION": "int3"},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "fp32"


    def test_unknown_env_names_warn(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-c", "import repro"],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": "src", "REPRO_SERVICE_MAX_INFLIGHT": "8"},
        )
        assert proc.returncode == 0, proc.stderr
        assert "RuntimeWarning" in proc.stderr
        assert "REPRO_SERVICE_MAX_INFLIGHT" in proc.stderr

    def test_known_env_names_do_not_warn(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-c", "import repro"],
            capture_output=True,
            text=True,
            env={
                "PYTHONPATH": "src",
                "REPRO_THREADS": "2",
                "REPRO_BENCH_SMOKE": "1",
            },
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""

class TestConfigure:
    def test_rejects_method_names(self):
        from repro.config import configure

        import pytest

        with pytest.raises(AttributeError, match="rng"):
            configure(rng=42)
        # rng must still be callable afterwards
        from repro.config import rng

        assert rng("still-works").standard_normal(1).shape == (1,)
