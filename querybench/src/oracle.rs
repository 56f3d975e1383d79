//! The result oracle: every checked query's result payload and
//! liability ledger must equal, byte for byte, what the simulator host
//! produces for the same spec.

use crate::gen::{Job, Rng};
use edgelet_core::exec::ExecutionReport;
use edgelet_core::util::Result;
use edgelet_core::Platform;

/// The bytes a query's answer is judged by.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Answer {
    /// The combiner result payload the querier received.
    pub payload: Option<Vec<u8>>,
    /// The encoded crowd-liability ledger.
    pub ledger: Vec<u8>,
}

impl Answer {
    /// The answer an execution report carries.
    pub fn of(report: &ExecutionReport) -> Answer {
        Answer {
            payload: report.result_payload.clone(),
            ledger: edgelet_core::wire::to_bytes(&report.ledger),
        }
    }
}

/// The simulator host's answer for `job`, which every other host must
/// reproduce. Fails unless the reference itself completed valid: a
/// workload is only defined on inputs where no query fails.
pub fn reference(platform: &mut Platform, job: &Job) -> Result<Answer> {
    let run = platform.run_query(&job.spec, &job.privacy, &job.resilience)?;
    if !(run.report.completed && run.report.valid) {
        return Err(edgelet_core::util::Error::InvalidQuery(format!(
            "reference run of query {} did not complete valid",
            job.spec.id.raw()
        )));
    }
    Ok(Answer::of(&run.report))
}

/// `count` distinct indices in `0..eligible`, chosen by `seed`, sorted.
pub fn sample(seed: u64, eligible: usize, count: usize) -> Vec<usize> {
    let mut all: Vec<usize> = (0..eligible).collect();
    Rng::new(seed ^ 0x4F52_4143).shuffle(&mut all);
    all.truncate(count.min(eligible));
    all.sort_unstable();
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{self, Scale};

    #[test]
    fn oracle_catches_a_corrupted_payload() {
        let mut p = Platform::build(gen::serve_mixed_config(Scale::Tiny));
        let jobs = gen::serve_mixed_jobs(&mut p, 11, 1, 1);
        let job = &jobs[0][0];
        let expected = reference(&mut p, job).unwrap();
        let again = Answer::of(
            &p.run_query(&job.spec, &job.privacy, &job.resilience)
                .unwrap()
                .report,
        );
        assert_eq!(again, expected);
        let mut corrupt = again.clone();
        let payload = corrupt.payload.as_mut().expect("a valid run has a payload");
        let last = payload.len() - 1;
        payload[last] ^= 0x01;
        assert_ne!(corrupt, expected);
        let mut ledger = again;
        ledger.ledger[0] ^= 0x80;
        assert_ne!(ledger, expected);
    }

    #[test]
    fn sample_is_seeded_distinct_and_bounded() {
        assert_eq!(sample(1, 30, 4), sample(1, 30, 4));
        assert_ne!(sample(1, 30, 4), sample(2, 30, 4));
        let s = sample(3, 30, 8);
        assert_eq!(s.len(), 8);
        assert!(s.windows(2).all(|w| w[0] < w[1]) && s[7] < 30);
        assert_eq!(sample(3, 2, 8).len(), 2);
    }
}
