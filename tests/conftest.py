"""Shared fixtures."""

import contextlib
import io
import json

import pytest

from deltan.cli import main


@pytest.fixture(scope="session")
def default_verification(tmp_path_factory):
    """One ``deltan verify --json`` run on the default corpus, shared by the
    tests that need it: (exit code, printed report, parsed JSON report, raw
    JSON report text)."""
    path = tmp_path_factory.mktemp("verify") / "report.json"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(["verify", "--json", str(path)])
    text = path.read_text(encoding="utf-8")
    return rc, out.getvalue(), json.loads(text), text
