"""Fixed work, independent of slumber, whose run time tracks the machine's speed.

run.py times this script in a fresh interpreter several times in each run,
the same way it times a command, and scales every time it reports by
CALIBRATION_REFERENCE_S over the median of those timings. It parses CSV text,
builds a dict and sorts it, and normalizes short codes and matches them
against a list of prefixes, like the program's ingest, ranking and IPC
lookup. It uses only the standard library, so no change to slumber changes
it.
"""

import csv
import io


def main() -> int:
    text = "".join(f"p{i:06d},{1900 + i % 116},{(i * 7919) % 101}\n" for i in range(40_000))
    counts = {}
    for paper_id, year, count in csv.reader(io.StringIO(text)):
        counts[paper_id, int(year)] = int(count)
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    prefixes = [f"{chr(65 + i % 8)}{i % 97:02d}{chr(65 + i % 23)}" for i in range(200)]
    matched = 0
    for i in range(800):
        code = "".join(f" {chr(65 + i % 8)}{i % 89:02d}{chr(65 + i % 19)} {i}/00 ".split()).upper()
        matched += sum(1 for prefix in prefixes if code.startswith("".join(prefix.split()).upper()))
    return 0 if len(ranked) == 40_000 and matched else 1


if __name__ == "__main__":
    raise SystemExit(main())
