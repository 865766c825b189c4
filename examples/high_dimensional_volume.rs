//! The paper's motivating complexity argument: naive rejection sampling of a
//! ball inscribed in a cube needs exponentially many trials as the dimension
//! grows, while the Dyer–Frieze–Kannan estimator keeps working.
//!
//! Run with `cargo run --release --example high_dimensional_volume`.

use std::sync::Arc;
use std::time::Instant;

use cdb_geometry::ball::{ball_to_cube_ratio, unit_ball_volume};
use cdb_geometry::Ellipsoid;
use cdb_linalg::Vector;
use cdb_sampler::{
    batch, ConvexBody, DfkSampler, GeneratorParams, RejectionSampler, RelationVolumeEstimator,
    SeedSequence,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(9);
    println!("estimating the volume of the unit ball B_d inscribed in [-1,1]^d");
    println!(
        "(median of 3 telescoping estimates, fanned out over {} worker threads)\n",
        batch::auto_threads()
    );
    println!(
        "{:>3} {:>12} {:>14} {:>14} {:>16} {:>12}",
        "d", "exact vol", "DFK estimate", "rejection est", "accept. rate", "DFK time"
    );

    for d in [2usize, 4, 6, 8, 10] {
        let exact = unit_ball_volume(d);
        let ball = Ellipsoid::ball(Vector::zeros(d), 1.0).expect("unit ball");
        // A loose certificate (r_inf < r_sup): a tight one (1.0, 1.0) would
        // pin the body to the certificate ball and let the estimator return
        // the closed-form volume without doing any work.
        let body = ConvexBody::from_oracle(Arc::new(ball), Vector::zeros(d), 0.8, 1.25);

        // Dyer–Frieze–Kannan estimator (membership oracle only), repeats
        // fanned out in parallel through the batch layer; the result is
        // identical for any thread count.
        let t0 = Instant::now();
        let mut dfk = DfkSampler::new(body.clone(), GeneratorParams::default(), &mut rng);
        let dfk_estimate = dfk
            .estimate_volume_median(3, &SeedSequence::new(d as u64), 0)
            .expect("DFK estimates never fail");
        let dfk_time = t0.elapsed();

        // Naive bounding-box rejection.
        let mut rejection =
            RejectionSampler::new(body, Vector::filled(d, -1.0), Vector::filled(d, 1.0));
        rejection.set_volume_trials(20_000);
        let rejection_estimate = rejection.estimate_volume(&mut rng).unwrap_or(0.0);

        println!(
            "{:>3} {:>12.5} {:>14.5} {:>14.5} {:>16.6} {:>12?}",
            d,
            exact,
            dfk_estimate,
            rejection_estimate,
            rejection.acceptance_rate(),
            dfk_time
        );
        let theoretical = ball_to_cube_ratio(d);
        println!("     theoretical acceptance rate of rejection sampling: {theoretical:.6}");
    }

    println!("\nthe rejection acceptance rate collapses exponentially (column 5), which is the\npaper's argument for walk-based generation; the DFK estimate keeps tracking the\nexact volume at every dimension.");
}
