"""Default thresholds shared by the library and the command-line parser.

Each value lives here once. The modules that use it import it under
their historical ``DEFAULT_*`` names, and ``cli.build_parser`` reads it
from here, so building the parser loads no analysis module.
"""

# contam.search: row matching and verdict classification.
MIN_OVERLAP = 0.8
MIN_DISTINCTIVE = 2
SELECTIVITY_FRACTION = 0.001
COMPLETE_THRESHOLD = 0.99
DIVERSITY_THRESHOLD = 10

# contam.index: postings buffered in memory before a run is spilled.
MAX_BUFFERED = 2_000_000

# prompts: few-shot examples per prompt.
SHOTS = 4

# quartile: per-feature bin accuracy at or above which a shortcut is flagged.
SHORTCUT_THRESHOLD = 0.9

# stratify: imbalance riders have a majority baseline of at least
# MIN_MAJORITY and a lift of at most MAX_LIFT.
MIN_MAJORITY = 0.85
MAX_LIFT = 0.01
