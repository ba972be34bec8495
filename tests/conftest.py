"""Each test starts from an empty form table (canonical._forms), so a form
stored by an earlier test, a checked constructor's included, never stands
in for a decode that the test means to run."""

import pytest

from affcox import canonical as c


@pytest.fixture(autouse=True)
def empty_form_table(monkeypatch):
    monkeypatch.setattr(c, "_forms", {})
    monkeypatch.setattr(c, "_held", 0)
