"""Cross-language Wikipedia coverage measurement toolkit.

The pipeline: stream-parse a Wikidata entity dump into slim records, decide
which items relate to a target country (direct country properties plus
transitive place resolution), aggregate pageview and readership inputs,
compute four per-language coverage metrics, pool them into cultural clusters,
and emit a sorted table plus bubble-chart data.

The package exports the run: :class:`RunConfig`, :func:`run_pipeline`, its
:class:`PipelineResult` and the :class:`WikiCoverageError` every refused
input raises.  The stages live in submodules, with no compatibility promise:
``dump`` (the streaming parse), ``slimstore`` (the store), ``attribution``,
``usage`` (pageviews and readership), ``metrics``, ``clusters``, ``chart``,
``report`` (the stage chain) and ``cli``.
"""

__version__ = "0.1.0"

from .errors import WikiCoverageError
from .report import PipelineResult, RunConfig, run_pipeline

__all__ = ["PipelineResult", "RunConfig", "WikiCoverageError", "run_pipeline"]
