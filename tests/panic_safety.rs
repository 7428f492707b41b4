//! A panic inside a kernel must unwind to the caller of the launch, never
//! hang it, and must leave the host worker pool usable.

use speck_repro::simt::{launch_map, CostModel, DeviceConfig, KernelConfig};
use std::panic::catch_unwind;
use std::sync::mpsc;
use std::time::Duration;

const GRID: usize = 10_000;

/// Runs `f` on its own thread and waits at most a minute for it.
fn within_a_minute<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(Duration::from_secs(60))
        .expect("launch hung, or its thread panicked outside catch_unwind")
}

/// Launches `GRID` blocks; block `poison` (if any) panics.
fn launch(poison: Option<usize>) -> Vec<usize> {
    let dev = DeviceConfig::titan_v();
    let cost = CostModel::default();
    let cfg = KernelConfig::new(32, 0);
    let (_, out) = launch_map(&dev, &cost, "panics", GRID, cfg, |ctx| {
        let id = ctx.block_id();
        assert!(Some(id) != poison, "block {id} panicked");
        ctx.charge_rounds(1);
        id
    });
    out
}

#[test]
fn panicking_block_unwinds_to_the_caller_and_the_pool_survives() {
    // Spread the panicking block over the grid so that, across trials, it
    // falls both in chunks the caller runs and in chunks a worker runs.
    let failed = within_a_minute(|| {
        (0..20)
            .filter(|t| catch_unwind(|| launch(Some(t * 487 % GRID))).is_err())
            .count()
    });
    assert_eq!(failed, 20, "every launch with a panicking block must fail");

    let out = within_a_minute(|| launch(None));
    assert_eq!(out, (0..GRID).collect::<Vec<_>>());
}
