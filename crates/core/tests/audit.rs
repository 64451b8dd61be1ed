//! End-to-end checks of the single-writer ownership auditor
//! (`--features ownership-audit`).
#![cfg(feature = "ownership-audit")]

use wfbn_concurrent::audit;
use wfbn_core::construct::{sequential_build, waitfree_build};
use wfbn_core::pipeline::pipelined_build;
use wfbn_core::stream::StreamingBuilder;
use wfbn_core::wide::waitfree_build_wide;
use wfbn_core::CountTable;
use wfbn_data::{Generator, Schema, UniformIndependent, ZipfIndependent};

/// The real two-stage build must satisfy the single-writer discipline: every
/// word of every partition and queue has one writer per stage. Large enough
/// to force table growth and multi-segment queues mid-build, and foreign
/// keys cross in `push_block` chunks from the write-combining buffers, so a
/// flush that strayed onto a foreign segment or a combiner buffer shared
/// between cores would panic here.
#[test]
fn waitfree_build_passes_the_audit() {
    let data = UniformIndependent::new(Schema::uniform(10, 2).unwrap()).generate(20_000, 1);
    let reference = sequential_build(&data).unwrap().table.to_sorted_vec();
    for p in [2usize, 4, 7] {
        let built = waitfree_build(&data, p).unwrap();
        assert_eq!(built.table.to_sorted_vec(), reference, "p={p}");
    }
}

/// Skewed keys concentrate traffic on few words — the adversarial case for
/// a would-be ownership bug, the heaviest one for the shadow map, and the
/// one where the combiner coalesces most.
#[test]
fn skewed_build_passes_the_audit() {
    let schema = Schema::new(vec![2, 3, 4, 2, 5]).unwrap();
    let data = ZipfIndependent::new(schema, 1.5)
        .unwrap()
        .generate(10_000, 3);
    let reference = sequential_build(&data).unwrap().table.to_sorted_vec();
    for p in [2usize, 4, 7] {
        assert_eq!(
            waitfree_build(&data, p).unwrap().table.to_sorted_vec(),
            reference,
            "p={p}"
        );
        assert_eq!(
            pipelined_build(&data, p).unwrap().table.to_sorted_vec(),
            reference,
            "pipelined p={p}"
        );
    }
}

/// The pipelined variant overlaps the stages but keeps the same per-word
/// ownership, so it must also audit clean.
#[test]
fn pipelined_build_passes_the_audit() {
    let data = UniformIndependent::new(Schema::uniform(8, 3).unwrap()).generate(15_000, 2);
    let reference = sequential_build(&data).unwrap().table.to_sorted_vec();
    for p in [2usize, 4, 7] {
        let built = pipelined_build(&data, p).unwrap();
        assert_eq!(built.table.to_sorted_vec(), reference, "p={p}");
    }
}

/// Streaming absorbs run the same body against persistent partitions. A
/// snapshot held across each absorb makes every worker deep-copy its
/// shared partition (`Arc::make_mut`) inside its own audited thread before
/// writing, so the copy's words must also have one writer.
#[test]
fn streaming_absorbs_pass_the_audit() {
    let schema = Schema::uniform(10, 2).unwrap();
    let gen = UniformIndependent::new(schema.clone());
    let batches: Vec<_> = (0..3).map(|seed| gen.generate(6_000, seed)).collect();
    for p in [2usize, 4] {
        let mut builder = StreamingBuilder::new(&schema, p).unwrap();
        let mut held = Vec::new();
        for batch in &batches {
            builder.absorb(batch).unwrap();
            held.push(builder.snapshot().unwrap());
        }
        for (k, snap) in held.iter().enumerate() {
            assert_eq!(snap.total_count(), 6_000 * (k as u64 + 1), "p={p}");
        }
    }
}

/// The 128-bit build shares the worker body, so its queue traffic goes
/// through the auditor too.
#[test]
fn wide_build_passes_the_audit() {
    let n = 80;
    let m = 8_000;
    let mut states = Vec::with_capacity(n * m);
    let mut x = 3u64;
    for _ in 0..(n * m) {
        x = wfbn_concurrent::mix64(x);
        states.push((x & 1) as u16);
    }
    let arities = vec![2u16; n];
    let reference = waitfree_build_wide(&states, &arities, 1)
        .unwrap()
        .to_sorted_vec();
    for p in [2usize, 4] {
        let wide = waitfree_build_wide(&states, &arities, p).unwrap();
        assert_eq!(wide.to_sorted_vec(), reference, "p={p}");
    }
}

/// Negative control: hand the *same* table to two "cores" in the same stage
/// — the bug class the auditor exists to catch — and require the panic.
#[test]
fn shared_partition_is_reported_as_violation() {
    let build = audit::BuildAudit::new();
    let mut table = CountTable::new();
    {
        let _core0 = audit::enter(&build, 0);
        table.increment(17, 1);
    }
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _core1 = audit::enter(&build, 1);
        table.increment(17, 1);
    }));
    let err = result.expect_err("two cores incrementing one partition in one stage must panic");
    let msg = err
        .downcast_ref::<String>()
        .expect("violation panics with a formatted message");
    assert!(msg.contains("single-writer violation"), "{msg}");
}
