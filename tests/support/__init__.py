"""Differential oracles the test suite and the benchmark harness share.

Independent slow implementations kept only to cross-check the package:
the retained tuple-based model counter (:mod:`.sharpsat_reference`), the
witness encoding of ``#Val`` (:mod:`.witness_encoding`),
condition-and-recount marginals (:mod:`.marginals_recount`) and the
CNF-level branching order they start from (:mod:`.branching`).  None of it
ships in ``repro``; import it as ``support.<module>`` with ``tests/`` on
``sys.path`` (pytest puts it there for the suite).
"""
