//! Differential test: the event-driven scheduler must reproduce the
//! retained cycle-driven reference **bit-for-bit** — same makespan, same
//! per-op issue cycles, same per-class busy counts — on every shipped
//! machine, over the Figure 7 kernel suite and seeded randomized blocks
//! (chains, fans, multi-unit stores, unpipelined divides).

use presage_bench::kernels::{figure7, innermost_block};
use presage_machine::{machines, BasicOp, MachineDesc};
use presage_sim::{reference, scheduler, simulate_loop};
use presage_translate::{BlockIr, ValueDef, ValueId};

/// splitmix64 — deterministic, dependency-free (mirrors `tests/properties.rs`).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn assert_engines_agree(machine: &MachineDesc, block: &BlockIr, what: &str) {
    let event = scheduler::simulate_block(machine, block)
        .unwrap_or_else(|e| panic!("{what} on {}: event engine: {e}", machine.name()));
    let oracle = reference::simulate_block(machine, block)
        .unwrap_or_else(|e| panic!("{what} on {}: reference engine: {e}", machine.name()));
    assert_eq!(
        event.makespan,
        oracle.makespan,
        "{what} on {}: makespan",
        machine.name()
    );
    assert_eq!(
        event.issue_cycles,
        oracle.issue_cycles,
        "{what} on {}: issue cycles",
        machine.name()
    );
    assert_eq!(
        event.unit_busy,
        oracle.unit_busy,
        "{what} on {}: unit busy",
        machine.name()
    );
}

#[test]
fn figure7_suite_on_all_machines() {
    for machine in machines::all() {
        for k in figure7() {
            let block = innermost_block(k.source, &machine);
            assert_engines_agree(&machine, &block, k.name);
        }
    }
}

#[test]
fn figure7_multi_block_streams_agree() {
    // 8 overlapped copies of each kernel body — the `simulate_blocks`
    // stream shape the overlap table measures.
    for machine in machines::all() {
        for k in figure7() {
            let block = innermost_block(k.source, &machine);
            let copies: Vec<&BlockIr> = std::iter::repeat_n(&block, 8).collect();
            let event = scheduler::simulate_blocks(&machine, copies.iter().copied()).unwrap();
            let oracle = reference::simulate_blocks(&machine, copies.iter().copied()).unwrap();
            assert_eq!(event, oracle, "{} stream on {}", k.name, machine.name());
        }
    }
}

#[test]
fn simulate_loop_agrees() {
    for machine in machines::all() {
        for k in figure7() {
            let block = innermost_block(k.source, &machine);
            assert_eq!(
                simulate_loop(&machine, &block, 8).unwrap(),
                reference::simulate_loop(&machine, &block, 8).unwrap(),
                "{} loop on {}",
                k.name,
                machine.name()
            );
        }
    }
}

/// Random blocks biased toward the shapes that stress a scheduler:
/// dependence chains, wide fans from a shared producer, multi-unit
/// stores (address + data ports), unpipelined divides/square roots, and
/// zero-cost ops in the middle of chains.
fn random_block(rng: &mut Rng) -> BlockIr {
    const OPS: [BasicOp; 12] = [
        BasicOp::FAdd,
        BasicOp::FMul,
        BasicOp::Fma,
        BasicOp::FDiv,
        BasicOp::FSqrt,
        BasicOp::IAdd,
        BasicOp::IMul,
        BasicOp::LoadFloat,
        BasicOp::StoreFloat,
        BasicOp::AddrCalc,
        BasicOp::BranchCond,
        BasicOp::Nop,
    ];
    let mut b = BlockIr::new();
    let x = b.add_value(ValueDef::External("x".into()));
    let mut produced: Vec<ValueId> = vec![x];
    for _ in 0..2 + rng.below(50) {
        let basic = OPS[rng.below(OPS.len() as u64) as usize];
        let pick = |rng: &mut Rng, vals: &[ValueId]| vals[rng.below(vals.len() as u64) as usize];
        let args = match rng.below(3) {
            // Chain: depend on the most recent value.
            0 => vec![*produced.last().unwrap(), pick(rng, &produced)],
            // Fan: depend on an arbitrary earlier value (many ops share it).
            1 => vec![pick(rng, &produced), pick(rng, &produced)],
            // Independent: external input only.
            _ => vec![x, x],
        };
        produced.push(b.emit(basic, args));
    }
    b
}

#[test]
fn randomized_blocks_on_all_machines() {
    let machines = machines::all();
    let mut rng = Rng(0xF16_7AB1E);
    for round in 0..60 {
        let block = random_block(&mut rng);
        for machine in &machines {
            assert_engines_agree(machine, &block, &format!("random block #{round}"));
        }
    }
}

#[test]
fn zero_cost_op_mid_chain_agrees_on_all_machines() {
    // The PR 4 dependence-threading regression, run differentially.
    for machine in machines::all() {
        let mut b = BlockIr::new();
        let x = b.add_value(ValueDef::External("x".into()));
        let a = b.emit(BasicOp::FDiv, vec![x, x]);
        let n = b.emit(BasicOp::Nop, vec![a]);
        b.emit(BasicOp::FAdd, vec![n, n]);
        assert_engines_agree(&machine, &b, "fdiv -> nop -> fadd");
    }
}
