"""JSON round-tripping of session records, under its pipeline name.

The encoding lives in :mod:`repro.record`, beside the record type, so
the diagnosis side decodes records without running this package's
``__init__``, which loads the campaign sources and with them the
simulator.
"""

from repro.record import (
    RECORD_FORMAT,
    record_from_dict,
    record_from_json,
    record_to_dict,
    record_to_json,
)

__all__ = [
    "RECORD_FORMAT",
    "record_from_dict",
    "record_from_json",
    "record_to_dict",
    "record_to_json",
]
