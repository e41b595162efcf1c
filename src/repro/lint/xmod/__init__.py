"""``repro.lint.xmod`` — the whole-program layers of ``repro lint``.

* :mod:`~repro.lint.xmod.symbols` — parse every file once; import/symbol
  resolution (:class:`~repro.lint.xmod.symbols.Project`);
* :mod:`~repro.lint.xmod.callgraph` — approximate call graph over the
  project's function units;
* :mod:`~repro.lint.xmod.dataflow` — shared per-function facts (mutable
  globals, submission sites, mutation sites);
* :mod:`~repro.lint.xmod.rules` — PAR001/PAR002/DET003/TEL001/ERR001.

:mod:`repro.lint.engine` runs these rules and the per-file ones in one
pass over one loaded :class:`~repro.lint.xmod.symbols.Project`.
"""
