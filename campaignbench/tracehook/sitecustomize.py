"""Start the layer ledger in every Python process of a traced campaign.

Active only when ``CAMPAIGNBENCH_TRACE_DIR`` is set and this directory
is on ``PYTHONPATH``; the campaign CLI hands both to its workers.
"""

import os

if os.environ.get("CAMPAIGNBENCH_TRACE_DIR"):
    import layertrace

    layertrace.install(os.environ["CAMPAIGNBENCH_TRACE_DIR"])
