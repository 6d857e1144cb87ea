//! Compile-only pin of the `ofscil_simbench` items the perf ledger
//! (`benchmark/`) builds against, as `benchmark/README.md` § "API surface"
//! lists them. Making one crate-private fails this build under
//! `cargo test`, not only the benchmark's separate build.

use ofscil_simbench::record::{parse, Json};
use ofscil_simbench::samplers::Zipfian;

#[test]
fn benchmark_api_surface_stays_public() {
    let _: Option<Json> = None;
    let _ = parse;
    let _ = Zipfian::new;
    let _ = Zipfian::sample;
}
