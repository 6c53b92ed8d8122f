"""Synthetic census extract with fixed regional margins (test support).

Generates a person-level microfile over 13 UK regions whose per-region
totals and science-occupation counts match the published margins used by
the golden tests: per region, the first ``SCIENTISTS[i]`` records carry a
science occupation code (alternating between the two codes) and the
remaining ``EMPLOYED[i] - SCIENTISTS[i]`` records cycle through non-science
filler codes.  A SEX column exists purely so conservation checks have
non-vital cells to compare.  Each run of records is one short period of
lines repeated, and generation is fully deterministic.

Run ``python -m groupanon.fixture OUT.csv`` to write the file.
"""

from __future__ import annotations

import argparse
import math
from pathlib import Path

from .microdata import AttributeSpec

REGION_CODES = ("11", "13", "14", "21", "22", "31", "33", "40", "51", "52", "60", "70", "80")
EMPLOYED = (48591, 129808, 96152, 83085, 101891, 108120, 161395, 97312, 54861, 86726, 99890, 55286, 33409)
SCIENTISTS = (695, 1672, 1176, 1163, 1171, 1524, 2294, 1246, 422, 871, 1589, 927, 369)

SCIENCE_OCCUPATIONS = ("211", "311")
FILLER_OCCUPATIONS = ("111", "231", "421", "516", "611", "721", "811", "999")
FALLBACK_OCCUPATION = "999"

SEXES = ("1", "2")
ATTRIBUTES = ("REGNUK", "OCC", "SEX")


def census_attribute_spec() -> AttributeSpec:
    """The anonymity task the fixture is built for: science share by region."""
    return AttributeSpec(
        vital_attributes=("OCC",),
        vital_combinations=tuple((code,) for code in SCIENCE_OCCUPATIONS),
        parameter_attribute="REGNUK",
        parameter_values=REGION_CODES,
        fallback_combination=(FALLBACK_OCCUPATION,),
    )


def _periodic(region: str, occupations: tuple[str, ...], count: int) -> str:
    """``count`` lines of ``region`` whose OCC cycles through ``occupations`` and SEX through ``SEXES``."""
    period = [f"{region},{occupations[i % len(occupations)]},{SEXES[i % len(SEXES)]}\n"
              for i in range(math.lcm(len(occupations), len(SEXES)))]
    whole, rest = divmod(count, len(period))
    return "".join(period) * whole + "".join(period[:rest])


def write_census_fixture(path) -> Path:
    """Write the fixture to ``path`` as comma-separated text."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(ATTRIBUTES) + "\n")
        for region, employed, scientists in zip(REGION_CODES, EMPLOYED, SCIENTISTS):
            handle.write(_periodic(region, SCIENCE_OCCUPATIONS, scientists))
            handle.write(_periodic(region, FILLER_OCCUPATIONS, employed - scientists))
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Write the synthetic census fixture.")
    parser.add_argument("output", help="destination CSV path")
    args = parser.parse_args(argv)
    path = write_census_fixture(args.output)
    total = sum(EMPLOYED)
    print(f"wrote {total} records to {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
