"""docs/TUNING.md must stay in sync with src/repro/config.py.

The knob table's contract: every ``REPRO_*`` environment variable the
config module reads appears in the *env* column, every ``ReproConfig``
field (except ``extra``) appears in the *field* column, and each
backticked default equals the field's actual default.  Beyond the table,
no README or docs page may name a ``REPRO_*`` variable nothing reads.
"""

import dataclasses
import re
from pathlib import Path

import pytest

from repro.config import ReproConfig

REPO_ROOT = Path(__file__).resolve().parents[2]
TUNING = REPO_ROOT / "docs" / "TUNING.md"
CONFIG = REPO_ROOT / "src" / "repro" / "config.py"


def _skip_unless_checkout():
    if not TUNING.is_file() or not CONFIG.is_file():
        pytest.skip("docs only present in a repository checkout")


def _table_rows():
    """Parse ``| env | field | type | default | when |`` body rows."""
    rows = []
    for line in TUNING.read_text(encoding="utf-8").splitlines():
        if not line.startswith("|"):
            continue
        cells = [c.strip() for c in line.strip("|").split("|")]
        if len(cells) != 5 or cells[0] in ("env", "---", ""):
            continue
        if set(cells[0]) <= {"-", " "}:  # separator row
            continue
        rows.append(cells)
    return rows


def _backticked(cell):
    match = re.match(r"^`([^`]+)`", cell)
    return match.group(1) if match else None


def test_every_env_knob_is_documented():
    _skip_unless_checkout()
    read_by_config = set(
        re.findall(r'"(REPRO_[A-Z0-9_]+)"', CONFIG.read_text(encoding="utf-8"))
    )
    assert read_by_config, "config.py should read REPRO_* variables"
    documented = {
        _backticked(row[0]) for row in _table_rows() if row[0] != "—"
    }
    missing = read_by_config - documented
    assert not missing, f"env knobs missing from docs/TUNING.md: {sorted(missing)}"


def test_every_config_field_is_documented():
    _skip_unless_checkout()
    fields = {
        f.name for f in dataclasses.fields(ReproConfig) if f.name != "extra"
    }
    documented = {
        _backticked(row[1]) for row in _table_rows() if row[1] != "—"
    }
    missing = fields - documented
    assert not missing, f"config fields missing from docs/TUNING.md: {sorted(missing)}"
    unknown = documented - fields
    assert not unknown, f"docs/TUNING.md documents unknown fields: {sorted(unknown)}"


def test_documented_defaults_match_config():
    _skip_unless_checkout()
    defaults = ReproConfig()
    for row in _table_rows():
        field = _backticked(row[1]) if row[1] != "—" else None
        if field is None:
            continue
        documented = _backticked(row[3])
        assert documented is not None, f"{field}: default not backticked"
        actual = repr(getattr(defaults, field))
        assert documented == actual, (
            f"{field}: docs/TUNING.md says default `{documented}`, "
            f"config.py says `{actual}`"
        )


def test_no_stale_env_names():
    """Every ``REPRO_*`` token in README.md and docs/*.md names a variable
    something reads; a prefix token (``REPRO_FAULT_*``) passes only if a
    read name has that prefix."""
    _skip_unless_checkout()
    read = set(
        re.findall(r'"(REPRO_[A-Z0-9_]+)"', CONFIG.read_text(encoding="utf-8"))
    )
    read.add("REPRO_BENCH_SMOKE")  # read by benchmarks/_smoke.py
    docs = [REPO_ROOT / "README.md", *sorted((REPO_ROOT / "docs").glob("*.md"))]
    stale = []
    for path in docs:
        text = path.read_text(encoding="utf-8")
        for token in set(re.findall(r"REPRO_[A-Z0-9_]*\*?", text)):
            if token.endswith("*"):
                known = any(name.startswith(token[:-1]) for name in read)
            else:
                known = token in read
            if not known:
                stale.append(f"{path.relative_to(REPO_ROOT)}: {token}")
    assert not stale, f"docs name REPRO_* variables nothing reads: {sorted(stale)}"
