//! Occupancy-grid perception helpers: fusion and coverage metrics.
//!
//! Grids use the three-value encoding from
//! [`HiddenGrid::rasterize`](crate::world::HiddenGrid::rasterize):
//! `-1` unobserved, `0` observed-free, `1` observed-occupied. Fusing two
//! views is a cell-wise max — the same operation the offloaded
//! [`grid_fuse`](airdnd_task::library::grid_fuse) kernel performs on the
//! helper vehicle.

/// Cell-wise max fusion of `b` into `a`.
///
/// # Panics
///
/// Panics if the grids differ in length.
pub fn fuse_max(a: &mut [i64], b: &[i64]) {
    assert_eq!(a.len(), b.len(), "grids must share the geometry");
    for (x, &y) in a.iter_mut().zip(b) {
        *x = (*x).max(y);
    }
}

/// Fraction of cells observed (`≥ 0`), in `[0, 1]`; 0.0 for empty grids.
pub fn observed_fraction(grid: &[i64]) -> f64 {
    if grid.is_empty() {
        return 0.0;
    }
    grid.iter().filter(|&&c| c >= 0).count() as f64 / grid.len() as f64
}

/// Indices of cells marked occupied.
pub fn occupied_cells(grid: &[i64]) -> Vec<usize> {
    grid.iter()
        .enumerate()
        .filter(|(_, &c)| c == 1)
        .map(|(i, _)| i)
        .collect()
}

/// `true` if every value is a legal grid cell (`-1`, `0` or `1`) — used to
/// detect byzantine-corrupted results in the trust experiments.
pub fn is_valid_grid(grid: &[i64]) -> bool {
    grid.iter().all(|c| (-1..=1).contains(c))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fuse_prefers_information() {
        let mut a = vec![-1, 0, 1, -1];
        let b = vec![0, -1, 0, 1];
        fuse_max(&mut a, &b);
        assert_eq!(a, vec![0, 0, 1, 1]);
    }

    #[test]
    fn fuse_is_idempotent_and_commutative() {
        let x = vec![-1, 0, 1];
        let y = vec![1, -1, 0];
        let mut xy = x.clone();
        fuse_max(&mut xy, &y);
        let mut yx = y.clone();
        fuse_max(&mut yx, &x);
        assert_eq!(xy, yx);
        let mut twice = xy.clone();
        fuse_max(&mut twice, &y);
        assert_eq!(twice, xy);
    }

    #[test]
    fn coverage_counts_observed() {
        assert_eq!(observed_fraction(&[-1, -1, 0, 1]), 0.5);
        assert_eq!(observed_fraction(&[]), 0.0);
        assert_eq!(observed_fraction(&[0, 0]), 1.0);
    }

    #[test]
    fn occupied_listing() {
        assert_eq!(occupied_cells(&[-1, 1, 0, 1]), vec![1, 3]);
        assert!(occupied_cells(&[0, -1]).is_empty());
    }

    #[test]
    fn validity_check_catches_corruption() {
        assert!(is_valid_grid(&[-1, 0, 1]));
        // The byzantine executor XORs 0x0BAD into outputs.
        assert!(!is_valid_grid(&[1 ^ 0x0BAD, 1]));
    }

    #[test]
    #[should_panic(expected = "share the geometry")]
    fn mismatched_lengths_panic() {
        let mut a = vec![0];
        fuse_max(&mut a, &[0, 1]);
    }
}
