//! Convolution layers lowered to GEMM via im2col (§I of the paper):
//! `M = batch · out_h · out_w`, `K = in_channels · kernel_h · kernel_w`,
//! `N = out_channels`.  Early CNN layers give `M ≫ K ≈ N` (type 1); the
//! shapes change down the network as images shrink and channels grow.

use ftimm::GemmShape;

/// One convolutional layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvLayer {
    /// Layer name (e.g. `conv1_1`).
    pub name: &'static str,
    /// Input channels.
    pub c_in: usize,
    /// Output channels.
    pub c_out: usize,
    /// Input height/width (square).
    pub hw: usize,
    /// Kernel height/width (square).
    pub k: usize,
    /// Stride.
    pub stride: usize,
    /// Symmetric padding.
    pub pad: usize,
}

impl ConvLayer {
    /// Output spatial extent.
    pub fn out_hw(&self) -> usize {
        (self.hw + 2 * self.pad - self.k) / self.stride + 1
    }

    /// The im2col GEMM shape for a given batch size.
    pub fn gemm_shape(&self, batch: usize) -> GemmShape {
        let m = batch * self.out_hw() * self.out_hw();
        let k = self.c_in * self.k * self.k;
        GemmShape::new(m, self.c_out, k)
    }

    /// Materialise the im2col matrix (`M × K`) from an input tensor in
    /// NCHW layout.
    pub fn im2col(&self, batch: usize, input: &[f32]) -> Vec<f32> {
        let (hw, k, pad, stride) = (self.hw, self.k, self.pad, self.stride);
        assert_eq!(input.len(), batch * self.c_in * hw * hw);
        let out = self.out_hw();
        let kk = self.c_in * k * k;
        let mut cols = vec![0.0f32; batch * out * out * kk];
        let mut row = 0usize;
        for b in 0..batch {
            for oy in 0..out {
                for ox in 0..out {
                    for c in 0..self.c_in {
                        for ky in 0..k {
                            for kx in 0..k {
                                let iy = (oy * stride + ky) as isize - pad as isize;
                                let ix = (ox * stride + kx) as isize - pad as isize;
                                let v = if iy >= 0
                                    && ix >= 0
                                    && (iy as usize) < hw
                                    && (ix as usize) < hw
                                {
                                    input[((b * self.c_in + c) * hw + iy as usize) * hw
                                        + ix as usize]
                                } else {
                                    0.0
                                };
                                cols[row * kk + (c * k + ky) * k + kx] = v;
                            }
                        }
                    }
                    row += 1;
                }
            }
        }
        cols
    }
}

/// The VGG-16 convolutional layers (224×224 input).
pub fn vgg16_layers() -> Vec<ConvLayer> {
    let l = |name, c_in, c_out, hw| ConvLayer {
        name,
        c_in,
        c_out,
        hw,
        k: 3,
        stride: 1,
        pad: 1,
    };
    vec![
        l("conv1_1", 3, 64, 224),
        l("conv1_2", 64, 64, 224),
        l("conv2_1", 64, 128, 112),
        l("conv2_2", 128, 128, 112),
        l("conv3_1", 128, 256, 56),
        l("conv3_2", 256, 256, 56),
        l("conv4_1", 256, 512, 28),
        l("conv4_2", 512, 512, 28),
        l("conv5_1", 512, 512, 14),
        l("conv5_2", 512, 512, 14),
    ]
}

/// ResNet-ish bottleneck 1×1/3×3 layers (224×224 input).
pub fn resnet_layers() -> Vec<ConvLayer> {
    vec![
        ConvLayer {
            name: "conv1",
            c_in: 3,
            c_out: 64,
            hw: 224,
            k: 7,
            stride: 2,
            pad: 3,
        },
        ConvLayer {
            name: "res2_1x1",
            c_in: 64,
            c_out: 64,
            hw: 56,
            k: 1,
            stride: 1,
            pad: 0,
        },
        ConvLayer {
            name: "res2_3x3",
            c_in: 64,
            c_out: 64,
            hw: 56,
            k: 3,
            stride: 1,
            pad: 1,
        },
        ConvLayer {
            name: "res3_1x1",
            c_in: 256,
            c_out: 128,
            hw: 28,
            k: 1,
            stride: 1,
            pad: 0,
        },
        ConvLayer {
            name: "res4_3x3",
            c_in: 256,
            c_out: 256,
            hw: 14,
            k: 3,
            stride: 1,
            pad: 1,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftimm::IrregularType;

    #[test]
    fn first_vgg_layer_is_type1() {
        // conv1_1: M = 224² per image, K = 27, N = 64 — the paper's
        // motivating "first layers of most CNNs" case.
        let l = &vgg16_layers()[0];
        let s = l.gemm_shape(1);
        assert_eq!(s.m, 224 * 224);
        assert_eq!(s.k, 27);
        assert_eq!(s.n, 64);
        assert_eq!(s.classify(), IrregularType::TallSkinnyTimesSmall);
    }

    #[test]
    fn deep_layers_grow_k_and_shrink_m() {
        let layers = vgg16_layers();
        let first = layers.first().unwrap().gemm_shape(1);
        let last = layers.last().unwrap().gemm_shape(1);
        assert!(first.m > last.m);
        assert!(first.k < last.k);
    }

    #[test]
    fn out_hw_accounts_for_stride_and_pad() {
        let l = resnet_layers()[0];
        assert_eq!(l.out_hw(), 112);
        let s = l.gemm_shape(4);
        assert_eq!(s.m, 4 * 112 * 112);
        assert_eq!(s.k, 3 * 49);
    }

    #[test]
    fn im2col_matches_direct_convolution() {
        let l = ConvLayer {
            name: "t",
            c_in: 2,
            c_out: 3,
            hw: 5,
            k: 3,
            stride: 1,
            pad: 1,
        };
        let input: Vec<f32> = (0..2 * 25).map(|i| i as f32).collect();
        let cols = l.im2col(1, &input);
        let kk = 2 * 9;
        let out = l.out_hw();
        assert_eq!(cols.len(), out * out * kk);
        // Direct check of one output position (1,1), channel 0, kernel all.
        let row = out + 1; // (oy=1, ox=1)
        for ky in 0..3 {
            for kx in 0..3 {
                let expect =
                    input[(ky * 5 + kx) + 5 + 1 - 5 - 1 + (5 + 1) - (5 + 1) + (ky * 5 + kx)];
                let _ = expect; // explicit index below instead
                let iy = 1 + ky - 1;
                let ix = 1 + kx - 1;
                assert_eq!(cols[row * kk + ky * 3 + kx], input[iy * 5 + ix]);
            }
        }
        // Padding corners are zero for output (0,0), kernel (0,0).
        assert_eq!(cols[0], 0.0);
    }

    #[test]
    fn im2col_identity_kernel_1x1() {
        let l = ConvLayer {
            name: "t",
            c_in: 3,
            c_out: 4,
            hw: 4,
            k: 1,
            stride: 1,
            pad: 0,
        };
        let input: Vec<f32> = (0..3 * 16).map(|i| i as f32).collect();
        let cols = l.im2col(1, &input);
        // Row (y,x) = pixels of all channels at that position.
        for y in 0..4 {
            for x in 0..4 {
                for c in 0..3 {
                    assert_eq!(cols[(y * 4 + x) * 3 + c], input[c * 16 + y * 4 + x]);
                }
            }
        }
    }
}
