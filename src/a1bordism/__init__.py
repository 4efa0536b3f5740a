"""a1bordism: characteristic bordism and symmetry-breaking obstructions
computed through exact GF(2) algebra over the subalgebra A(1).

Layers, bottom to top:

- :mod:`a1bordism.gf2` - bit-packed dense linear algebra over GF(2);
- :mod:`a1bordism.steenrod` - the 8-dimensional algebra A(1);
- :mod:`a1bordism.modules` - graded A(1)-modules, Margolis homology,
  free splitting, bounded-degree isomorphism search, the module catalog;
- :mod:`a1bordism.spaces` - classifying-space presentations, the Wu
  formula, twisted-module and Thom-space constructors, named structures;
- :mod:`a1bordism.ext` - minimal resolutions, Ext charts, collapse
  certification, h0-tower group assembly;
- :mod:`a1bordism.pipelines` - end-to-end bordism tables and catalog
  decompositions;
- :mod:`a1bordism.les` - exactness constraint solving;
- :mod:`a1bordism.obstruction` - higher-form symmetry-breaking
  obstructions;
- :mod:`a1bordism.cli` - the command-line surface.
"""

from .gf2 import BitMatrix
from .steenrod import A1Element, milnor_primitive, top_class
from .modules import (
    GradedA1Module,
    ModuleDecomposition,
    catalog,
    format_a1mod,
    free_module,
    iso_up_to_degree,
    parse_a1mod,
    split_free,
)
from .spaces import (
    SpacePresentation,
    named_structure,
    parse_space,
    space,
    twist,
)
from .ext import (
    ExtChart,
    Resolution,
    assemble_groups,
    collapse_certificate,
    ext_chart,
    minimal_resolution,
)
from .pipelines import (
    PipelineReport,
    decompose_structure,
    run_pipeline,
)
from .les import LESProblem, PartialGroup, parse_les, solve_les
from .obstruction import (
    evaluate_obstruction_on,
    primary_obstruction_oneform,
    pullback_along_thom_class,
    twoform_degree6_injectivity,
)

__version__ = "1.0.0"

__all__ = [
    "A1Element",
    "BitMatrix",
    "ExtChart",
    "GradedA1Module",
    "LESProblem",
    "ModuleDecomposition",
    "PartialGroup",
    "PipelineReport",
    "Resolution",
    "SpacePresentation",
    "assemble_groups",
    "catalog",
    "collapse_certificate",
    "decompose_structure",
    "evaluate_obstruction_on",
    "ext_chart",
    "format_a1mod",
    "free_module",
    "iso_up_to_degree",
    "milnor_primitive",
    "minimal_resolution",
    "named_structure",
    "parse_a1mod",
    "parse_les",
    "parse_space",
    "primary_obstruction_oneform",
    "pullback_along_thom_class",
    "run_pipeline",
    "solve_les",
    "space",
    "split_free",
    "top_class",
    "twist",
    "twoform_degree6_injectivity",
]
