//! Properties of the quantized cold-tier blocks: the roundtrip error
//! stays within the documented per-plane bound for both formats across
//! random plane shapes and value scales, and the dequant-fused attend
//! kernels are bit-identical to dequantizing first and attending over
//! the f32 copy.

use bat_tensor::{ColBlock, QuantKind, QuantizedColBlock, SplitCols};
use proptest::prelude::*;
use proptest::TestRng;

fn unit(rng: &mut TestRng) -> f32 {
    // Uniform in [0, 1) from the top 24 bits of a draw.
    (rng.next_u64() >> 40) as f32 / (1u64 << 24) as f32
}

fn random_block(rng: &mut TestRng) -> ColBlock {
    let rows = 1 + (rng.next_u64() % 24) as usize;
    let cols = 1 + (rng.next_u64() % 120) as usize;
    // Span nearly five orders of magnitude of plane scales, staying well
    // inside the fp16 normal range.
    let scale = 10f32.powf(unit(rng) * 4.6 - 2.0);
    let mut b = ColBlock::new(rows);
    let mut col = vec![0.0f32; rows];
    for _ in 0..cols {
        for slot in col.iter_mut() {
            *slot = (unit(rng) * 2.0 - 1.0) * scale;
        }
        b.push_col(&col);
    }
    b
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn roundtrip_error_stays_within_documented_bound(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::from_seed(seed);
        let block = random_block(&mut rng);
        for kind in [QuantKind::Int8, QuantKind::F16] {
            let q = QuantizedColBlock::quantize(&block, kind);
            let back = q.dequantize();
            for r in 0..block.rows() {
                let bound = q.error_bound(r);
                for (x, y) in block.plane(r).iter().zip(back.plane(r)) {
                    prop_assert!(
                        (x - y).abs() <= bound,
                        "{kind:?} plane {r}: |{x} - {y}| = {} > {bound}",
                        (x - y).abs()
                    );
                }
            }
        }
    }

    #[test]
    fn fused_attend_bit_matches_dequantize_then_attend(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::from_seed(seed);
        let block = random_block(&mut rng);
        let rows = block.rows();
        let window = 1 + (rng.next_u64() as usize % block.len());
        let scores: Vec<f32> = (0..window).map(|_| unit(&mut rng) * 2.0 - 1.0).collect();
        let coeff = unit(&mut rng) * 2.0 - 1.0;
        let plane = rng.next_u64() as usize % rows;
        for kind in [QuantKind::Int8, QuantKind::F16] {
            let q = QuantizedColBlock::quantize(&block, kind);
            let deq = q.dequantize();
            let view = SplitCols::new(None, &deq);

            let mut got = vec![0.5f32; rows];
            let mut want = vec![0.5f32; rows];
            q.rows_dot_acc(0, &scores, &mut got);
            view.rows_dot_acc(0, std::slice::from_ref(&(0..window)), &scores, &mut want);
            for (g, w) in got.iter().zip(&want) {
                prop_assert_eq!(g.to_bits(), w.to_bits(), "{:?} rows_dot_acc", kind);
            }

            let mut got = vec![-0.25f32; window];
            let mut want = vec![-0.25f32; window];
            q.axpy_plane(plane, window, coeff, &mut got);
            view.axpy_plane(
                plane,
                std::slice::from_ref(&(0..window)),
                coeff,
                &mut want,
            );
            for (g, w) in got.iter().zip(&want) {
                prop_assert_eq!(g.to_bits(), w.to_bits(), "{:?} axpy_plane", kind);
            }
        }
    }
}
