//! Integration tests of the GAP9 deployment model against the paper's
//! deployment claims (Table I cost table, Table IV energy table, Fig. 2
//! scaling, and the 12 mJ-per-class headline).

use ofscil::nn::models::{mobilenet_v2, resnet12, MobileNetVariant};
use ofscil::prelude::*;

#[test]
fn table1_cost_relations_hold() {
    let mut rng = SeedRng::new(0);
    let mut x1 = mobilenet_v2(MobileNetVariant::X1, &mut rng);
    let mut x2 = mobilenet_v2(MobileNetVariant::X2, &mut rng);
    let mut x4 = mobilenet_v2(MobileNetVariant::X4, &mut rng);
    let mut r12 = resnet12(&mut rng);

    let p1 = profile_with_fcr(&mut x1, 256, 32, 32);
    let p2 = profile_with_fcr(&mut x2, 256, 32, 32);
    let p4 = profile_with_fcr(&mut x4, 256, 32, 32);
    let pr = profile_with_fcr(&mut r12, 512, 32, 32);

    // Paper Table I: MobileNetV2 variants share ~2.5 M params; ResNet-12 has
    // ~12.9 M. MACs: 25.9 / 45.4 / 149.2 / 525.3 M.
    assert_eq!(p1.params, p2.params);
    assert_eq!(p2.params, p4.params);
    assert!(
        (2.0..3.0).contains(&p1.params_millions()),
        "{}",
        p1.params_millions()
    );
    assert!(
        (11.0..15.0).contains(&pr.params_millions()),
        "{}",
        pr.params_millions()
    );
    assert!(p1.macs < p2.macs && p2.macs < p4.macs && p4.macs < pr.macs);

    // The paper's headline efficiency ratios: ResNet-12 vs MobileNetV2 x4 is
    // ~3.5x the MACs and ~5.2x the parameters.
    let mac_ratio = pr.macs as f64 / p4.macs as f64;
    let param_ratio = pr.params as f64 / p4.params as f64;
    assert!((2.0..6.0).contains(&mac_ratio), "mac ratio {mac_ratio}");
    assert!(
        (4.0..7.0).contains(&param_ratio),
        "param ratio {param_ratio}"
    );
}

#[test]
fn table4_energy_ordering_and_magnitudes() {
    let executor = Gap9Executor::default();
    let mut rng = SeedRng::new(0);
    let mut energies = Vec::new();
    for variant in [
        MobileNetVariant::X1,
        MobileNetVariant::X2,
        MobileNetVariant::X4,
    ] {
        let backbone = mobilenet_v2(variant, &mut rng);
        let deployed = deploy_backbone(&backbone, 32, 32);
        let fcr = executor.fcr_inference(1280, 256, 8).unwrap();
        let inference = executor.backbone_inference(&deployed, 8).unwrap();
        let update = executor.em_update(&deployed, 1280, 256, 5, 8).unwrap();
        let finetune = executor
            .fcr_finetune(&deployed.name, 1280, 256, 60, 100, 8)
            .unwrap();

        // Within one backbone: FCR << inference << EM update << finetune.
        assert!(fcr.energy_mj < inference.energy_mj);
        assert!(inference.energy_mj < update.energy_mj);
        assert!(update.energy_mj < finetune.energy_mj);
        // Power stays within the ~50 mW envelope for every operation.
        for cost in [&fcr, &inference, &update, &finetune] {
            assert!(
                (35.0..55.0).contains(&cost.power_mw),
                "{} power {} mW",
                cost.operation,
                cost.power_mw
            );
        }
        energies.push(update.energy_mj);
    }
    // Larger stride profiles cost more energy per learned class (Table IV:
    // 11.35 / 12.75 / 22.75 mJ).
    assert!(
        energies[0] < energies[1] && energies[1] < energies[2],
        "{energies:?}"
    );
    // The headline: the baseline profile learns a class for on the order of
    // 12 mJ.
    assert!(
        (5.0..30.0).contains(&energies[0]),
        "per-class energy {} mJ",
        energies[0]
    );
}

#[test]
fn figure2_scaling_shapes() {
    let executor = Gap9Executor::default();
    let mut rng = SeedRng::new(0);
    let cores = [1usize, 2, 4, 8];

    // Backbone panels: MACs/cycle grows with cores and with the stride-relaxed
    // profiles (x4 > x2 > x1 at 8 cores).
    let mut at_8_cores = Vec::new();
    for variant in [
        MobileNetVariant::X1,
        MobileNetVariant::X2,
        MobileNetVariant::X4,
    ] {
        let deployed = deploy_backbone(&mobilenet_v2(variant, &mut rng), 32, 32);
        let sweep = executor
            .macs_per_cycle_sweep(&deployed, &cores, false)
            .unwrap();
        for window in sweep.windows(2) {
            assert!(
                window[1].1 > window[0].1,
                "{variant:?} not monotone: {sweep:?}"
            );
        }
        at_8_cores.push(sweep.last().unwrap().1);
    }
    assert!(at_8_cores[0] < at_8_cores[1] && at_8_cores[1] < at_8_cores[2]);
    assert!(
        (3.5..8.0).contains(&at_8_cores[2]),
        "x4 at 8 cores: {}",
        at_8_cores[2]
    );

    // FCR panel: DMA-bound, so the gains from more cores are small and the
    // absolute MACs/cycle stays below 1.
    let fcr = deploy_fcr(1280, 256);
    let fcr_sweep = executor.macs_per_cycle_sweep(&fcr, &cores, false).unwrap();
    assert!(fcr_sweep.last().unwrap().1 < 1.0);
    let fcr_gain = fcr_sweep.last().unwrap().1 / fcr_sweep[0].1;
    let backbone_gain = {
        let deployed = deploy_backbone(&mobilenet_v2(MobileNetVariant::X4, &mut rng), 32, 32);
        let sweep = executor
            .macs_per_cycle_sweep(&deployed, &cores, false)
            .unwrap();
        sweep.last().unwrap().1 / sweep[0].1
    };
    assert!(
        fcr_gain < backbone_gain,
        "FCR should parallelise worse than the backbone: {fcr_gain} vs {backbone_gain}"
    );

    // Fine-tuning panel: training kernels reach lower MACs/cycle than the int8
    // inference kernels.
    let finetune_sweep = executor.macs_per_cycle_sweep(&fcr, &cores, true).unwrap();
    for (inference, training) in fcr_sweep.iter().zip(&finetune_sweep) {
        assert!(training.1 < 8.0);
        assert!(training.1 > 0.0);
        let _ = inference;
    }
}

#[test]
fn deployment_uses_the_device_memory_hierarchy() {
    let config = Gap9Config::default();
    let mut rng = SeedRng::new(0);
    let backbone = mobilenet_v2(MobileNetVariant::X4, &mut rng);
    let deployed = deploy_backbone(&backbone, 32, 32);
    // The int8 model does not fit in L2 (which is what forces L3 streaming in
    // the model and on the real device), but fits in L3.
    assert!(deployed.total_weight_bytes() > config.l2_bytes as u64);
    assert!(deployed.total_weight_bytes() < config.l3_bytes as u64);
    // Single layers exceed L1 and therefore require tiling.
    assert!(deployed
        .layers
        .iter()
        .any(|l| l.working_set_bytes() > config.l1_bytes as u64));
}
