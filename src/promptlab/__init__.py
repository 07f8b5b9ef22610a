"""promptlab: visual-prompt transfer learning on frozen source classifiers.

A desk-scale laboratory built on a small reverse-mode autodiff engine:
train standard or adversarially-robust convolutional sources, learn
additive border-frame prompts over them with random or iterative label
mapping, optionally loosen decision boundaries by block-max logit
reduction, attack everything with the single-step sign method, and
drive it all from reproducible JSON-configured experiments.

The package re-exports each library module's ``__all__``, the one list of
its public names; ``blas``, ``heap``, ``fileio`` and ``cli`` stay
module-level.

Importing the package pins the BLAS NumPy links to one thread for the
whole process (see ``promptlab.blas``), so that results do not depend on
the machine's core count.  It also fixes glibc's malloc thresholds for
the whole process (see ``promptlab.heap``), so that freed buffers stay
in the heap instead of being faulted in again.
"""

from . import blas, heap

blas.pin_one_thread()
heap.fix_thresholds()

from .attack import *
from .checkpoint import *
from .data import *
from .errors import *
from .harness import *
from .mapping import *
from .metrics import *
from .nets import *
from .optim import *
from .pipelines import *
from .prompt import *
from .tensor import *
from .train import *

__version__ = "0.1.0"
