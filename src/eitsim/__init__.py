"""eitsim: density-matrix simulation of probe absorption, dispersion and
slow light in a six-level rare-earth-doped crystal driven by probe,
coupling and auxiliary fields, with a three-level closed-form backend and
a full master-equation backend.

Each public name lives in the module that defines it, e.g.
`from eitsim.bloch import full_model_chi`.  This module imports nothing,
so `import eitsim` loads no numpy and `eitsim.cli` can fix numpy's BLAS
threads before numpy starts.
"""
