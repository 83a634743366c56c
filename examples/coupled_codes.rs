//! Coupled scientific codes through the staging space — the paper's title
//! scenario: a producer simulation stages versioned fields through the
//! asynchronous transport, while a separately-running consumer code waits
//! for each version's transfers to finish and analyses its region of
//! interest (the DataSpaces versioned put/get coupling pattern, over the
//! rendezvous the native workflow's analysis workers use).
//!
//! ```sh
//! cargo run --release --example coupled_codes
//! ```

use std::sync::Arc;
use xlayer::amr::hierarchy::HierarchyConfig;
use xlayer::amr::{IBox, IntVect, ProblemDomain};
use xlayer::solvers::{
    AdvectDiffuseSolver, AmrSimulation, DriverConfig, ScalarProblem, VelocityField,
};
use xlayer::staging::{AsyncStager, DataObject, DataSpace, Sharding, StageTask};
use xlayer::viz::stats::BlockStats;

fn main() {
    const STEPS: u64 = 10;
    let space = Arc::new(DataSpace::new(4, 256 << 20, Sharding::BboxHash));
    let stager = AsyncStager::new(Arc::clone(&space), 2, 4);

    // Consumer code: waits for each version of the producer's
    // "temperature" field, reads the lower-half region of interest and
    // tracks descriptive statistics per version — the §5.2.4 statistics
    // service, coupled through versioned staging.
    let roi = IBox::new(IntVect::new(0, 0, 0), IntVect::new(23, 23, 11));
    let consumer = {
        let space = Arc::clone(&space);
        let transfers = stager.stats();
        std::thread::spawn(move || {
            let mut report = Vec::new();
            for v in 1..=STEPS {
                transfers.wait_processed("temperature", v, 1);
                let (fab, _) = space.get_region("temperature", v, &roi);
                report.push((v, BlockStats::compute(&fab, 0, &roi)));
                // keep staging memory bounded
                space.evict_before("temperature", v);
            }
            report
        })
    };

    // Producer code: an AMR advection run staging its base level each
    // step (one object per step for the demo).
    let n = 24i64;
    let domain = ProblemDomain::periodic(IBox::cube(n));
    let solver = AdvectDiffuseSolver::new(VelocityField::Constant([0.0, 0.0, 1.5]), 0.01, n);
    let mut sim = AmrSimulation::new(
        domain,
        HierarchyConfig {
            max_levels: 1,
            base_max_box: 24,
            ..Default::default()
        },
        solver,
        DriverConfig {
            regrid_interval: 0,
            ..Default::default()
        },
    );
    // A hot blob starting in the consumer's region, advecting out of it.
    ScalarProblem::Gaussian {
        center: [12.0, 12.0, 6.0],
        sigma: 3.0,
    }
    .init_hierarchy(&mut sim.hierarchy);

    for _ in 0..STEPS {
        let stats = sim.advance();
        let level = sim.hierarchy.level(0);
        let obj = DataObject::from_fab(
            "temperature",
            stats.step,
            level.fab(0),
            0,
            &level.valid_box(0),
            0,
        );
        stager
            .put_batch(vec![StageTask::Ready(obj)])
            .expect("transport open");
    }
    let (delivered, rejected) = stager.drain().expect("transfer threads");
    assert_eq!((delivered, rejected), (STEPS, 0));

    let report = consumer.join().expect("consumer");
    println!(
        "consumer saw {} versions of its region of interest:",
        report.len()
    );
    println!("version   mean      max      (blob advects out of the ROI)");
    for (v, s) in &report {
        println!("{v:>7}   {:.4}   {:.4}", s.mean, s.max);
    }
    // The blob moves +z out of the ROI: its mean there must decay.
    let first = report.first().expect("versions").1.mean;
    let last = report.last().expect("versions").1.mean;
    println!(
        "\nROI mean fell {:.1}% as the feature left the coupled region.",
        100.0 * (1.0 - last / first)
    );
    assert!(last < first, "blob should advect out of the ROI");
}
