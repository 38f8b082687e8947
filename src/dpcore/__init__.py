"""dpcore: a differentially private query engine with a built-in audit
harness.

Layering (strictly one-directional):

* relational / transforms / registry -- the data access layer: exact
  computation plus deterministic bounds, stability and sensitivity tracking.
* randomness / mechanisms / accounting / gateway -- the privacy layer: the
  only path from exact statistics to released values, always mediated by
  the accountant.
* service / cli -- the postprocessing layer and user-facing plumbing; never
  touches raw data.
* audit -- statistical tests that try to falsify the rest of the package.
"""

__version__ = "0.1.0"
