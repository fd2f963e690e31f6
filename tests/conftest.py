"""Test-session defaults.

Estimates run on two worker threads unless POLYCARLESON_THREADS is already
set.  Outputs do not depend on the thread count (acceptance criterion 11
checks it), so this changes only how long the suite takes.
"""

import os

os.environ.setdefault("POLYCARLESON_THREADS", "2")
