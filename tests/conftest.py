import random
import struct
import sys
from pathlib import Path

import pytest
from hypothesis import settings

# Derandomized so a tier-1 run is reproducible; no deadline because
# shared CI machines make per-example timings noisy.
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")

sys.path.insert(0, str(Path(__file__).parent))  # make oracles importable

from tabaudit.data import Dataset, TaskSpec, TaskType

# One column "x" and two rows claimed, as a TBIN header.
_TBIN_HEAD = b"TBIN0001" + struct.pack("<IH", 1, 1) + b"x" + struct.pack("<Q", 2)

# Table files that read_table refuses: (file name, bytes, message naming {path}).
BAD_TABLES = [
    ("empty.csv", b"", "table file {path} is empty (header row required)"),
    ("magic.tbin", b"TBIN0002" + _TBIN_HEAD[8:] + b"\x00\x00", "{path}: bad TBIN magic"),
    ("truncated.tbin", _TBIN_HEAD + b"\x01" + struct.pack("<I", 2) + b"ab",
     "{path}: corrupt TBIN file: index out of range"),
    ("no-columns.tbin", b"TBIN0001" + struct.pack("<IQ", 0, 3),
     "{path}: corrupt TBIN file: 3 rows claimed with no columns"),
]

LABOR_COLUMNS = (
    "Unnamed: 0", "hours", "kids5", "kids618", "age", "educ", "wage",
    "repwage", "hushrs", "husage", "huseduc", "huswage", "faminc", "mtr",
    "motheduc", "fatheduc", "unem", "city", "exper", "nwifeinc",
    "wifecoll", "huscoll", "lfp",
)

PRICE_COLUMNS = ("Date", "Open", "High", "Low", "Adj Close", "Volume", "Close")


def build_labor_dataset(seed: int = 20240753, n: int = 753, n_positive: int = 428) -> tuple[Dataset, TaskSpec]:
    """Seeded 753-row labor-force-style fixture, target lfp in {1, 0}.

    Several full-precision continuous columns keep distinct rows far below
    any row-match overlap threshold, which makes planted-contamination
    precision measurable exactly.
    """
    rng = random.Random(seed)
    labels = ["1"] * n_positive + ["0"] * (n - n_positive)
    rng.shuffle(labels)
    rows = []
    for i in range(n):
        rows.append((
            str(i),
            str(rng.randint(0, 3286)),
            str(rng.randint(0, 3)),
            str(rng.randint(0, 5)),
            str(rng.randint(30, 60)),
            str(rng.randint(5, 17)),
            f"{rng.uniform(0.0, 30.0):.3f}",
            f"{rng.uniform(0.0, 10.0):.2f}",
            str(rng.randint(400, 3200)),
            str(rng.randint(30, 60)),
            str(rng.randint(5, 17)),
            f"{rng.uniform(0.5, 50.0):.4f}",
            str(rng.randint(1500, 96000)),
            f"{rng.uniform(0.4, 0.95):.4f}",
            str(rng.randint(0, 17)),
            str(rng.randint(0, 17)),
            f"{rng.uniform(3.0, 14.0):.1f}",
            str(rng.randint(0, 1)),
            str(rng.randint(0, 45)),
            f"{rng.uniform(0.03, 96.0):.4f}",
            "TRUE" if rng.random() < 0.3 else "FALSE",
            "TRUE" if rng.random() < 0.4 else "FALSE",
            labels[i],
        ))
    dataset = Dataset(id="labor-participation", columns=LABOR_COLUMNS, rows=tuple(rows))
    task = TaskSpec(
        dataset_id="labor-participation",
        task_type=TaskType.BINARY,
        target_column="lfp",
        class_labels=("1", "0"),
    )
    return dataset, task


def build_price_dataset(seed: int = 11, n: int = 300) -> tuple[Dataset, TaskSpec]:
    """Seeded OHLC-style fixture with a quartile task on Close."""
    rng = random.Random(seed)
    rows = []
    closes = []
    for i in range(n):
        close = rng.uniform(100.0, 40000.0)
        closes.append(close)
        rows.append((
            f"20{10 + i // 365:02d}-{1 + (i // 28) % 12:02d}-{1 + i % 28:02d}",
            f"{close * rng.uniform(0.97, 1.03):.6f}",
            f"{close * rng.uniform(1.0, 1.05):.6f}",
            f"{close * rng.uniform(0.95, 1.0):.6f}",
            f"{close:.6f}",  # Adj Close == Close: the classic numeric shortcut
            str(rng.randint(10**6, 10**10)),
            f"{close:.6f}",
        ))
    from tabaudit.quartile import quartile_bins

    boundaries = quartile_bins([float(row[6]) for row in rows])
    dataset = Dataset(id="coin-prices", columns=PRICE_COLUMNS, rows=tuple(rows))
    task = TaskSpec(
        dataset_id="coin-prices",
        task_type=TaskType.QUARTILE,
        target_column="Close",
        quartile_boundaries=boundaries,
    )
    return dataset, task


def build_workout_dataset(seed: int = 5, n: int = 40) -> tuple[Dataset, TaskSpec]:
    """Date -> weekday fixture: the task-leakage shape."""
    rng = random.Random(seed)
    days = ("Monday", "Tuesday", "Wednesday", "Thursday", "Friday", "Saturday", "Sunday")
    rows = []
    for i in range(n):
        day_idx = rng.randrange(7)
        rows.append((
            f"2021-{1 + i % 12:02d}-{1 + (seed + i) % 28:02d}",
            f"coach_{rng.randrange(6)}",
            str(rng.choice((20, 30, 45, 60))),
            days[day_idx],
        ))
    dataset = Dataset(
        id="workout-log",
        columns=("session_date", "instructor", "minutes", "weekday"),
        rows=tuple(rows),
    )
    task = TaskSpec(
        dataset_id="workout-log",
        task_type=TaskType.CATEGORICAL,
        target_column="weekday",
        class_labels=days,
    )
    return dataset, task


@pytest.fixture(scope="session")
def labor_fixture():
    return build_labor_dataset()


@pytest.fixture(scope="session")
def price_fixture():
    return build_price_dataset()


@pytest.fixture(scope="session")
def workout_fixture():
    return build_workout_dataset()
