"""Reference process: a fixed job whose wall time tracks the machine's speed.

It starts the interpreter, imports numpy and scipy.integrate (what every
qistate command loads) and runs a fixed loop of small dense linear
algebra and interpreter work, the same mix as a qistate command but none
of qistate's code.  The benchmark times it next to the commands and
reports their times as multiples of it, which hold still while a shared
machine speeds up and slows down.
"""

import numpy as np
import scipy.integrate  # noqa: F401  (part of the job: qistate loads it too)


def main() -> None:
    rng = np.random.default_rng(0)
    a = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    h = a + np.conj(a.T)
    for _ in range(3000):
        np.linalg.eigh(h)
        a @ a
        sum(i * i for i in range(200))


if __name__ == "__main__":
    main()
