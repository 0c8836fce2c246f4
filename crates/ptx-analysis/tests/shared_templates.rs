//! Lowered plans share one template list, and the prepared-kernel table
//! resolves their kernels by (list, index) to the very entries it finds by
//! content, evictions included. A plan whose list was edited goes by
//! content and counts its edit.

use ptx::builder::KernelBuilder;
use ptx::inst::{BodyElem, Instruction, Op, Operand};
use ptx::kernel::LaunchPlan;
use ptx::types::{Reg, RegClass, Type};
use ptx_analysis::{
    count_launch_bruteforce, count_plan, prepare_kernel, prepare_plan, KERNEL_TABLE_CAPACITY,
};
use std::sync::{Arc, Mutex, MutexGuard};

/// Held by every test here: the table is process-wide, and one test
/// evicts the entries the others compare against.
static TABLE_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    // a failed test must not wedge the others
    TABLE_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn lowered(name: &str) -> LaunchPlan {
    let model = cnn_ir::zoo::build(name).unwrap();
    ptx_codegen::lower(&model, "sm_61").unwrap()
}

/// Every slot of `plan` is the table's entry for its template.
fn assert_slots_match_templates(plan: &LaunchPlan) {
    let templates = ptx_codegen::templates::kernels();
    let slots = prepare_plan(plan);
    assert_eq!(slots.len(), templates.len());
    for l in &plan.launches {
        let slot = slots[l.kernel].as_ref().expect("launched, so prepared");
        assert!(
            Arc::ptr_eq(slot, &prepare_kernel(&templates[l.kernel])),
            "slot {} is not the table's entry for its template",
            l.kernel
        );
    }
}

#[test]
fn a_lowered_plan_resolves_each_slot_to_its_templates_entry() {
    let _guard = lock();
    let plan = lowered("mobilenet");
    // the first call may resolve the list by content, the second by index
    assert_slots_match_templates(&plan);
    assert_slots_match_templates(&plan);
}

#[test]
fn an_evicted_template_resolves_by_content_again() {
    let _guard = lock();
    let plan = lowered("mobilenet");
    prepare_plan(&plan);
    // as many other kernels as the table holds evict every template
    for i in 0..KERNEL_TABLE_CAPACITY {
        let mut kb = KernelBuilder::new("k", 32);
        let f = kb.f();
        kb.mov(Type::F32, f, Operand::ImmF(i as f32));
        kb.ret();
        prepare_kernel(&kb.finish());
    }
    assert_slots_match_templates(&plan);
}

#[test]
fn an_edited_plan_resolves_by_content_and_counts_its_edit() {
    let _guard = lock();
    let plan = lowered("alexnet");
    prepare_plan(&plan);
    let mut launch = plan
        .launches
        .iter()
        .find(|l| plan.module.kernels[l.kernel].name == "k_act_relu_f32")
        .expect("alexnet launches relu")
        .clone();
    launch.grid = (2, 1, 1);
    let k = launch.kernel;

    // every thread now executes one more instruction, before the guard
    let mut edited = LaunchPlan {
        launches: vec![launch.clone()],
        ..plan.clone()
    };
    let kernel = &mut Arc::make_mut(&mut edited.module.kernels)[k];
    let fresh = Reg::new(RegClass::R, kernel.reg_counts()[RegClass::R as usize]);
    kernel.body.insert(
        0,
        BodyElem::Inst(Instruction::new(Op::Mov {
            t: Type::U32,
            dst: fresh,
            src: Operand::ImmI(1),
        })),
    );
    assert!(!Arc::ptr_eq(&edited.module.kernels, &plan.module.kernels));
    let (template, kernel) = (&plan.module.kernels[k], &edited.module.kernels[k]);
    assert_eq!(template.body.len() + 1, kernel.body.len());

    let slots = prepare_plan(&edited);
    let slot = slots[k].as_ref().unwrap();
    assert!(Arc::ptr_eq(slot, &prepare_kernel(kernel)));
    assert!(!Arc::ptr_eq(slot, &prepare_kernel(template)));
    assert_eq!(slot.kernel(), kernel);

    let counted = count_plan(&edited, true).unwrap().per_launch[0].clone();
    let brute = count_launch_bruteforce(kernel, &launch).unwrap();
    assert_eq!(counted.thread_instructions, brute.thread_instructions);
    assert_eq!(counted.warp_issues, brute.warp_issues);
    assert_eq!(counted.by_category, brute.by_category);
    let original = count_launch_bruteforce(template, &launch).unwrap();
    assert_eq!(
        brute.thread_instructions,
        original.thread_instructions + brute.threads
    );
}
