"""Session setup shared by every test module."""

import simplexdiff.cli


def pytest_sessionstart(session):
    # the tests call simulate in-process, so give them the heap policy
    # that cli.main sets for a run; a subprocess test starts from glibc's
    # defaults again
    simplexdiff.cli.keep_heap_resident()
