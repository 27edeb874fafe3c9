//! A data-center reconfiguration scenario (Section 5.5): the cores granted
//! to the OLTP application change at runtime, and the hybrid scheduler
//! re-profiles transaction footprints (FPTable) to pick SLICC when the
//! aggregate L1-I fits the workload and STREX when it does not.
//!
//! ```text
//! cargo run --release --example hybrid_datacenter
//! ```

use strex::campaign::Campaign;
use strex::config::{SchedulerKind, SimConfig};
use strex::sched::FpTable;
use strex_oltp::workload::{Workload, WorkloadKind};

fn main() {
    let workload = Workload::preset_small(WorkloadKind::Tpce, 40, 11);
    // Profile once: the FPTable the hardware would build by sampling one
    // transaction per type (Section 5.5's profiling phase).
    let fptable = FpTable::profile(workload.txns(), 32 * 1024);
    println!(
        "FPTable: {} types profiled, mean footprint {:.1} L1-I units\n",
        fptable.len(),
        fptable.mean_units()
    );

    println!(
        "{:>5}  {:>9}  {:>8}  {:>7}  {:>7}",
        "cores", "selected", "rel-tput", "I-MPKI", "D-MPKI"
    );
    // The reconfiguration sweep is one hybrid campaign over the granted
    // core counts; the 2-core baseline reference is a single run.
    let base2 = strex::driver::run(
        &workload,
        &SimConfig::builder().cores(2).build().expect("valid"),
    );
    let hybrid_cfg = SimConfig::builder()
        .cores(2)
        .scheduler(SchedulerKind::Hybrid)
        .build()
        .expect("valid");
    let result = Campaign::new(hybrid_cfg)
        .over_workloads([&workload])
        .over_cores([2usize, 4, 8, 16])
        .run()
        .expect("valid campaign");
    for cell in result.cells() {
        let r = &cell.report;
        println!(
            "{:>5}  {:>9}  {:>8.2}  {:>7.1}  {:>7.2}",
            cell.key.cores,
            r.hybrid_choice.as_deref().unwrap_or("?"),
            r.relative_throughput(&base2),
            r.i_mpki(),
            r.d_mpki()
        );
    }
    println!(
        "\nThe selection rule is the paper's: SLICC once the core count covers \
         the FPTable's mean footprint ({:.1} units here), STREX below that.",
        fptable.mean_units()
    );
}
