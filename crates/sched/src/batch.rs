//! §5.1's per-request batching, as one point of the slot machine.
//!
//! §5.1: "To meet the latency SLA, we enforce a *max-batched-tokens* limit,
//! e.g. 4000 tokens, with the value determined via offline profiling."
//! Inference workers take FIFO batches whose **newly computed** token counts
//! sum to at most the limit; a single request whose suffix alone exceeds the
//! limit still runs (alone) — the limit bounds batching, it does not reject
//! work.
//!
//! That is the [`BatchScheduler`](crate::BatchScheduler) at
//! [`BatchingConfig::PER_REQUEST`]: every request is one whole chunk, and a
//! worker's seats fill from the global FIFO at each round boundary while the
//! round's tokens fit the budget
//! ([`crate::BatchScheduler::with_round_budget`]). The budget binds every
//! round in both disciplines; the chunked configurations this workspace
//! ships keep their rounds far below it.

use crate::slots::BatchingConfig;

impl BatchingConfig {
    /// Per-request batching: each request is one whole chunk, and a round
    /// seats as many requests as the round budget admits.
    ///
    /// ```
    /// use bat_sched::{BatchScheduler, BatchingConfig};
    ///
    /// let mut s = BatchScheduler::new(BatchingConfig::PER_REQUEST, 0.003, vec![1.0])
    ///     .with_round_budget(4000);
    /// for (idx, tokens) in [2500, 1200, 900, 1500, 800].into_iter().enumerate() {
    ///     s.admit(0.0, idx, tokens, tokens as f64 * 1e-5, None);
    /// }
    /// s.finish();
    /// let rounds: Vec<Vec<usize>> = s.drain_rounds().into_iter().map(|r| r.requests).collect();
    /// // The first arrival finds the worker idle and runs alone; at its
    /// // boundary the queue's head fills the round until the next request
    /// // would pass 4000 tokens.
    /// assert_eq!(rounds, [vec![0], vec![1, 2, 3], vec![4]]);
    /// ```
    pub const PER_REQUEST: BatchingConfig = BatchingConfig {
        slots_per_worker: usize::MAX,
        chunk_tokens: u64::MAX,
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BatchScheduler;
    use proptest::prelude::*;

    /// The rounds one worker forms at the per-request point over `tokens`,
    /// queued FIFO while the worker is away and packed from its join on.
    fn rounds(budget: u64, tokens: &[u64]) -> Vec<Vec<usize>> {
        let mut s = BatchScheduler::new(BatchingConfig::PER_REQUEST, 0.003, vec![1.0])
            .with_round_budget(budget);
        s.drain(0.0, 0);
        for (idx, &t) in tokens.iter().enumerate() {
            s.admit(0.0, idx, t, t as f64 * 1e-6, None);
        }
        s.join(0.0, 0);
        s.finish();
        assert_eq!(s.drain_completions().len(), tokens.len());
        let rounds = s.drain_rounds();
        for r in &rounds {
            let sum: u64 = r.requests.iter().map(|&i| tokens[i]).sum();
            assert_eq!(r.tokens, sum, "a request is one whole chunk");
        }
        rounds.into_iter().map(|r| r.requests).collect()
    }

    #[test]
    fn packs_under_budget() {
        // 40 + 50 fits 100; 30 starts the next round.
        assert_eq!(rounds(100, &[40, 50, 30]), [vec![0, 1], vec![2]]);
    }

    #[test]
    fn oversized_request_runs_alone() {
        assert_eq!(rounds(100, &[250, 10]), [vec![0], vec![1]]);
    }

    #[test]
    fn order_is_preserved() {
        let rounds = rounds(50, &[20; 10]);
        assert!(rounds.iter().all(|r| r.len() == 2));
        let flat: Vec<usize> = rounds.into_iter().flatten().collect();
        assert_eq!(flat, (0..10).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "budget must be positive")]
    fn zero_budget_rejected() {
        let _ =
            BatchScheduler::new(BatchingConfig::PER_REQUEST, 0.0, vec![1.0]).with_round_budget(0);
    }

    #[test]
    fn the_budget_binds_chunked_rounds_too() {
        // Four seats of 64-token chunks would carry 256 tokens a round; a
        // 150-token budget seats two, and the others wait for a boundary.
        let mut s = BatchScheduler::new(
            BatchingConfig {
                slots_per_worker: 4,
                chunk_tokens: 64,
            },
            0.003,
            vec![1.0],
        )
        .with_round_budget(150);
        for idx in 0..6 {
            s.admit(0.0, idx, 200, 0.02, None);
        }
        s.finish();
        assert_eq!(s.drain_completions().len(), 6);
        let rounds = s.drain_rounds();
        assert!(rounds.iter().all(|r| r.tokens <= 150), "{rounds:?}");
        assert!(rounds.iter().any(|r| r.requests.len() == 2));
    }

    proptest! {
        /// Every round fits the budget unless it holds one request, rounds
        /// keep FIFO order, every request rides exactly one round, and a
        /// budget of one token is one request per round.
        #[test]
        fn batches_respect_budget(
            tokens in proptest::collection::vec(1u64..3000, 0..50),
            budget in 1u64..5000,
        ) {
            let formed = rounds(budget, &tokens);
            for r in &formed {
                prop_assert!(!r.is_empty());
                let sum: u64 = r.iter().map(|&i| tokens[i]).sum();
                if r.len() > 1 {
                    prop_assert!(sum <= budget);
                }
            }
            let flat: Vec<usize> = formed.into_iter().flatten().collect();
            prop_assert_eq!(flat, (0..tokens.len()).collect::<Vec<_>>());
            prop_assert!(rounds(1, &tokens).iter().all(|r| r.len() == 1));
        }
    }
}
