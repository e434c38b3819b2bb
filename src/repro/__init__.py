"""OASIS reproduction: offsetting active reconstruction attacks in FL.

Top-level package for the full reproduction of "OASIS: Offsetting Active
Reconstruction Attacks in Federated Learning" (ICDCS 2024).  Sub-packages:

- :mod:`repro.tensor` — numpy autograd engine (exact gradient algebra).
- :mod:`repro.nn` — layers, ResNet-18, losses, optimizers.
- :mod:`repro.data` — procedural ImageNet/CIFAR100 stand-ins, loaders.
- :mod:`repro.augment` — the paper's Eq. 2-5 image transformations.
- :mod:`repro.fl` — federated-learning simulator with dishonest servers.
- :mod:`repro.attacks` — RTF, CAH, and linear-model gradient inversion.
- :mod:`repro.defense` — the OASIS defense, analysis tools, baselines.
- :mod:`repro.metrics` — PSNR / accuracy.
- :mod:`repro.experiments` — per-figure/table reproduction harnesses.
"""

__version__ = "1.0.0"
