//! Relations the prepared-kernel table and its launch-shape memo keys rest
//! on, checked across the model zoo on `sm_61`: buffer addresses never
//! change a count or a detailed simulation, memoized and unmemoized
//! detailed simulation agree bit for bit, and a warm table counts exactly
//! like a cold one.

use gpu_sim::{SimMode, SimReport, Simulator};
use ptx::kernel::LaunchPlan;
use ptx::types::Type;
use ptx_analysis::{
    clear_kernel_table, count_plan, count_plan_report_budgeted, prepare_kernel, CountMode,
    ExecBudget,
};
use std::sync::{Mutex, MutexGuard};

/// Held by every test here: the table is process-wide, and a cold count
/// must start from an empty table that no other test refills meanwhile.
static TABLE_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    // a failed test must not wedge the others
    TABLE_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Models sampled for detailed simulation (every launch of the unmemoized
/// mode is simulated, so the whole zoo would be slow in a test build).
const DETAILED_SAMPLE: [&str; 5] = [
    "alexnet",
    "mobilenet",
    "resnet18",
    "squeezenet1.1",
    "bert-micro",
];

fn model_names() -> Vec<&'static str> {
    let mut names: Vec<&'static str> = cnn_ir::zoo::all().iter().map(|e| e.name).collect();
    names.extend(
        cnn_ir::zoo::variants::all_variants()
            .iter()
            .map(|(n, _)| *n),
    );
    names.extend(
        cnn_ir::zoo::transformer::all_transformers()
            .iter()
            .map(|(n, _)| *n),
    );
    names
}

fn plan_of(name: &str) -> LaunchPlan {
    let model = cnn_ir::zoo::build_any(name).unwrap_or_else(|| panic!("unknown model {name}"));
    ptx_codegen::lower(&model, "sm_61").unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// `plan` with every `u64` argument moved by `shift`. In all 28 templates a
/// `u64` parameter is a buffer address.
fn shift_addresses(plan: &LaunchPlan, shift: u64) -> LaunchPlan {
    let mut shifted = plan.clone();
    for l in &mut shifted.launches {
        let kernel = &shifted.module.kernels[l.kernel];
        for (arg, param) in l.args.iter_mut().zip(&kernel.params) {
            if param.t == Type::U64 {
                *arg += shift;
            }
        }
    }
    shifted
}

/// Every field of a report, floats by bit pattern.
fn report_bits(r: &SimReport) -> [u64; 8] {
    [
        r.cycles.to_bits(),
        r.warp_instructions,
        r.thread_instructions,
        r.ipc.to_bits(),
        r.latency_ms.to_bits(),
        r.dram_bytes.to_bits(),
        r.l2_hit.to_bits(),
        r.num_launches as u64,
    ]
}

fn simulate(plan: &LaunchPlan, mode: SimMode) -> [u64; 8] {
    let sim = Simulator::new(gpu_sim::specs::v100s(), mode);
    let counts = count_plan(plan, true).unwrap_or_else(|e| panic!("{}: {e}", plan.model_name));
    let report = sim
        .simulate_plan(plan, &counts, &ExecBudget::default())
        .unwrap_or_else(|e| panic!("{}: {e}", plan.model_name));
    report_bits(&report)
}

#[test]
fn template_address_parameters_are_never_read_by_the_slice() {
    let _guard = lock();
    // what lets one layer shape hit the memo across buffer placements
    for t in ptx_codegen::Template::ALL {
        let kernel = t.build();
        let prepared = prepare_kernel(&kernel);
        let args: Vec<u64> = (0..kernel.params.len() as u64).collect();
        let moved: Vec<u64> = args
            .iter()
            .zip(&kernel.params)
            .map(|(&a, p)| if p.t == Type::U64 { a + 4096 } else { a })
            .collect();
        assert_eq!(
            prepared.read_args(&args),
            prepared.read_args(&moved),
            "{} reads a u64 parameter in its branch slice",
            t.name()
        );
    }
}

#[test]
fn shifting_buffer_addresses_leaves_counts_bit_identical() {
    let _guard = lock();
    let budget = ExecBudget::default();
    for name in model_names() {
        let plan = plan_of(name);
        let shifted = shift_addresses(&plan, 1 << 24);
        for mode in [CountMode::Auto, CountMode::Interp] {
            let (a, _) = count_plan_report_budgeted(&plan, true, &budget, mode).unwrap();
            let (b, _) = count_plan_report_budgeted(&shifted, true, &budget, mode).unwrap();
            assert_eq!(a, b, "{name} ({mode}): counts moved with the addresses");
        }
    }
}

#[test]
fn shifting_buffer_addresses_leaves_detailed_simulation_bit_identical() {
    let _guard = lock();
    for name in DETAILED_SAMPLE {
        let plan = plan_of(name);
        let shifted = shift_addresses(&plan, 1 << 24);
        assert_eq!(
            simulate(&plan, SimMode::Detailed),
            simulate(&shifted, SimMode::Detailed),
            "{name}: detailed simulation moved with the addresses"
        );
    }
}

#[test]
fn memoized_detailed_simulation_equals_unmemoized_bit_for_bit() {
    let _guard = lock();
    for name in DETAILED_SAMPLE {
        let plan = plan_of(name);
        assert_eq!(
            simulate(&plan, SimMode::Detailed),
            simulate(&plan, SimMode::DetailedNoMemo),
            "{name}: memoized and unmemoized detailed simulation differ"
        );
    }
}

#[test]
fn warm_and_cold_tables_count_identically() {
    let _guard = lock();
    for name in model_names() {
        let plan = plan_of(name);
        clear_kernel_table();
        let cold = count_plan(&plan, true).unwrap_or_else(|e| panic!("{name}: {e}"));
        let warm = count_plan(&plan, true).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(cold, warm, "{name}: a warm table changed the counts");
    }
}

#[test]
fn repeated_layer_shapes_share_one_count() {
    let _guard = lock();
    // no two launches of a plan pass the same buffers, so before the shape
    // key every launch was its own memo entry
    let budget = ExecBudget::default();
    let (mut launches, mut unique) = (0, 0);
    for name in model_names() {
        let plan = plan_of(name);
        let (_, report) =
            count_plan_report_budgeted(&plan, true, &budget, CountMode::Auto).unwrap();
        launches += plan.launches.len();
        unique += report.unique_launches as usize;
    }
    assert!(
        unique * 2 < launches,
        "{unique} shapes for {launches} launches"
    );
}
