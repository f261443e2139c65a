//! With one client on `oltp-inline`, the messages each transfer sends to
//! the DC and the locks it takes are the same for every transfer. The
//! per-layer counts of a traced run rest on this.

use perfbench::trace::Recorder;
use perfbench::workload::{run_transfers, Workload};
use std::sync::Arc;

/// DC message counts and lock acquisitions so far.
fn counts(stack: &perfbench::stack::Stack, rec: &Recorder) -> [u64; 5] {
    let (acquired, _, _, _) = stack.shards[0].tc.lock_manager().stats().snapshot();
    [
        rec.dc_read.calls(),
        rec.dc_write.calls(),
        rec.dc_eosl.calls(),
        rec.dc_lwm.calls(),
        acquired,
    ]
}

#[test]
fn every_transfer_sends_the_same_messages_and_takes_the_same_locks() {
    let stack = Workload::OltpInline.setup();
    let rec = Arc::new(Recorder::default());
    stack.install_tracing(&rec);
    let mut per_transfer = Vec::new();
    for i in 0..200 {
        let before = counts(&stack, &rec);
        let out = run_transfers(&stack, i, 1, Some(&rec));
        assert_eq!(out.failed, 0);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        let after = counts(&stack, &rec);
        let d: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
        per_transfer.push(d);
    }
    for d in &per_transfer {
        // 2 locking reads; 2 updates + 2 commit stamps; one EOSL and one
        // LWM published by the commit's log force.
        assert_eq!(
            &d[..4],
            &[2, 4, 1, 1],
            "per-transfer DC messages {per_transfer:?}"
        );
        assert_eq!(
            d[4], per_transfer[0][4],
            "lock acquisitions differ: {per_transfer:?}"
        );
    }
}
