//! Allocation-budget regression test for the pooled batch sim pipeline.
//!
//! A steady-state `UeBatch` cycle — pooled recorders in, `run_into` over
//! recycled `outs`, recorders back to the pool — reuses every buffer it
//! touches: recorder event/truth storage, `SimOutput` vectors, sweep
//! scratch, and the spare heap buffers behind spilled measurement reports
//! (DESIGN.md §16). This test pins the budget with a counting global
//! allocator so a stray per-step `collect()` or per-run rebuild fails CI
//! before it erodes the `sim-step` perf-snapshot numbers.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use onoff_policy::{op_t_policy, PhoneModel};
use onoff_radio::{CellSite, Point, RadioEnvironment, RadioTables};
use onoff_rrc::ids::{CellId, Pci};
use onoff_sim::recorder::Recorder;
use onoff_sim::{MovementPath, UeBatch};

struct CountingAlloc;

thread_local! {
    /// Allocations this thread made since counting was switched on; `None`
    /// while it is off. Per thread, so tests the harness runs concurrently
    /// never bill each other.
    static ALLOCS: Cell<Option<u64>> = const { Cell::new(None) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: the slot may already be gone while the thread exits.
        let _ = ALLOCS.try_with(|n| n.set(n.get().map(|n| n + 1)));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `f` and returns its result with the number of allocations the
/// calling thread made meanwhile. Work `f` hands to other threads is not
/// counted, so the measured region must run on this thread.
fn count_allocs<R>(f: impl FnOnce() -> R) -> (R, u64) {
    ALLOCS.with(|n| n.set(Some(0)));
    let r = f();
    let allocs = ALLOCS.with(|n| n.take()).expect("counting was on");
    (r, allocs)
}

/// A mid-size SA deployment whose per-step sweep reports overflow the
/// inline report capacity — the demanding case for the spare-buffer pool.
fn env() -> RadioEnvironment {
    let mut cells = Vec::new();
    for i in 0..6usize {
        let pci = (100 + i * 37) as u16;
        let tower = Point::new(i as f64 * 380.0 - 900.0, (i % 2) as f64 * 200.0);
        let mk = |cell: CellId, bw: f64, tx: f64| {
            let mut s = CellSite::macro_site(cell, tower, 0.7 * i as f64, bw);
            s.tx_power_dbm = tx;
            s
        };
        cells.push(mk(CellId::lte(Pci(pci), 5145), 10.0, 12.0));
        cells.push(mk(CellId::nr(Pci(pci), 521310), 90.0, 14.0));
        cells.push(mk(CellId::nr(Pci(pci), 387410), 10.0, 8.0));
        cells.push(mk(CellId::nr(Pci(pci), 632736), 40.0, 12.0));
    }
    RadioEnvironment::new(42, cells)
}

#[test]
fn steady_state_batch_allocs_per_event_within_budget() {
    let policy = op_t_policy();
    let device = PhoneModel::OnePlus12R.profile();
    let e = env();
    let tables = RadioTables::new(&e);
    let jobs: Vec<(Point, u64)> = (0..4)
        .map(|i| {
            (
                Point::new(i as f64 * 310.0 - 600.0, 40.0),
                i as u64 * 13 + 3,
            )
        })
        .collect();

    let run_batch = |outs: &mut Vec<onoff_sim::SimOutput>, pool: &mut Vec<Recorder>| {
        let mut batch = UeBatch::new(&policy, &device, &tables, 120_000, 1000);
        for (p, seed) in &jobs {
            batch.push_with_recorder(
                MovementPath::Stationary(*p),
                *seed,
                pool.pop().unwrap_or_default(),
            );
        }
        batch.run_into(outs, pool);
    };

    // Two warm-up cycles: the first allocates every pooled buffer, the
    // second settles ping-ponged capacities (events grow into recycled
    // storage whose high-water mark is still rising).
    let mut outs = Vec::new();
    let mut pool: Vec<Recorder> = Vec::new();
    run_batch(&mut outs, &mut pool);
    run_batch(&mut outs, &mut pool);

    let events: usize = outs.iter().map(|o| o.events.len()).sum();
    assert!(events > 400, "batch must produce a meaningful event volume");

    let ((), allocs) = count_allocs(|| run_batch(&mut outs, &mut pool));

    let per_event = allocs as f64 / events as f64;
    // Steady state is pooled; what remains is O(1)-per-cycle bookkeeping
    // (batch SoA vectors, per-connection boxes at establishment). The 1.0
    // budget keeps any per-event or per-step allocation a loud failure.
    assert!(
        per_event <= 1.0,
        "steady-state batch allocated {allocs} times over {events} events \
         ({per_event:.3} allocs/event, budget 1.0)"
    );
}
