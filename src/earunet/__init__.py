"""EAR-U-Net liver segmentation toolkit.

A self-contained numpy implementation of the EAR-U-Net segmentation
network (EfficientNet-style encoder, attention-gated skips, residual
decoder) with hand-written backward passes, its losses, the CT
preprocessing/augmentation pipeline, volume and checkpoint file formats
and the five volumetric evaluation metrics.
"""

__version__ = "0.1.0"
