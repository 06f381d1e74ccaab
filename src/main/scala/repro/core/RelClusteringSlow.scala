package repro.core

import repro.cluster.GammaAlg
import repro.cluster.Weighted.Pt
import repro.join.LocalJoinIndex
import scala.collection.mutable.ArrayBuffer
import scala.util.Random

/** Algorithm 1 — RelClusteringSlow: the deterministic coreset construction.
  *
  * It walks the exponential grid around every center x_i in X
  * ([[GridWalk.cells]]); every cell passing condition (3) is counted
  * *exactly*, excluding the region G of cells processed earlier, by refining
  * the cell against the overlapping G-boxes (the arrangement Arr'(G)
  * restricted to the cell) and issuing one CountRect per uncovered sub-box.
  * A representative tuple (SampleRect, z=1) is stored with weight K_cell.
  *
  * Runtime is Omega(|X|^(d_u+1) N) as in Theorem 3.5 — the paper's point is
  * precisely that this is slow; we run it at small N and measure it.
  */
object RelClusteringSlow {

  def run(index: LocalJoinIndex, dims: Array[Int], x: Array[Pt],
          alpha: Double, r: Double, k: Int,
          gamma: GammaAlg, conf: CoreConf, rng: Random): ClusterOut = {
    val n = index.n
    require(n > 0, "empty join")
    val grids = GridWalk.grids(gamma.objective, alpha, r, n, conf.cellsPerSide, x)

    val g = new Region(index, dims) // processed cells that contributed tuples
    val corePts = ArrayBuffer.empty[Pt]
    val coreW = ArrayBuffer.empty[Double]

    // A cell with CountRect = 0 contributes nothing and excludes nothing —
    // the paper adds every condition-(3) cell to G, but only cells whose
    // *counted* tuples must not be recounted need to be in G (tuples of a
    // K=0 cell are already covered by earlier G-boxes), so we keep |G| = |C|
    // and avoid a quadratic blow-up.
    for (box <- GridWalk.cells(grids, index, dims)) {
      val (flo, fhi) = SubSpace.lift(box, dims, index.dim)
      val cellCount = index.countBox(flo, fhi)
      if (cellCount > 0) {
        val (cnt, rep) = g.countMinusG(box, cellCount, rng)
        if (cnt > 0) {
          corePts += rep.get
          coreW += cnt
          g += box
        }
      }
    }

    // r_u = v_S(C)/(1-eps') (Alg 1 line 22 / Appendix A.2)
    GridWalk.finish(corePts.toArray, coreW.toArray, k, gamma, rng, 1.0 / (1 - conf.epsPrime))
  }

  /** The region G: boxes over the subspace `dims`, box b's bounds in
    * `lo`/`hi` at b * d until (b + 1) * d, in the order added. It keeps the
    * scratch arrays of [[countMinusG]] from call to call.
    */
  private final class Region(index: LocalJoinIndex, dims: Array[Int]) {
    private val d = dims.length
    private var lo = new Array[Double](16 * d)
    private var hi = new Array[Double](16 * d)
    private var size = 0
    private var overlapping = new Array[Int](16) // the G-boxes meeting the current cell
    private val (flo, fhi) = index.fullBox        // the current sub-box, lifted
    private val mid = new Array[Double](d)        // the current sub-box's midpoint

    def +=(b: Box): Unit = {
      if ((size + 1) * d > lo.length) {
        lo = java.util.Arrays.copyOf(lo, 2 * lo.length)
        hi = java.util.Arrays.copyOf(hi, 2 * hi.length)
      }
      System.arraycopy(b.lo, 0, lo, size * d, d)
      System.arraycopy(b.hi, 0, hi, size * d, d)
      size += 1
    }

    /** K_cell = |q_u(D) ∩ (cell \ G)| plus one representative from that set.
      * Refines `cell` against the G-boxes overlapping it: the per-dimension
      * breakpoints of those boxes partition the cell into sub-boxes, each
      * either fully covered by some G-box (skip: it holds its midpoint) or
      * disjoint from G (count), visited last dimension fastest. With no
      * G-box overlapping, the cell is its only sub-box, and `cellCount` (its
      * CountRect, > 0) is not counted again.
      */
    def countMinusG(cell: Box, cellCount: Double, rng: Random): (Double, Option[Pt]) = {
      var m = 0
      var b = 0
      while (b < size) {
        if (meets(b, cell)) {
          if (m == overlapping.length) overlapping = java.util.Arrays.copyOf(overlapping, 2 * m)
          overlapping(m) = b
          m += 1
        }
        b += 1
      }
      if (m == 0) {
        val (clo, chi) = SubSpace.lift(cell, dims, index.dim)
        return (cellCount, Some(SubSpace.project(index.sampleBox(clo, chi, 1, rng)(0), dims)))
      }
      var j = 0
      while (j < m) { if (covers(overlapping(j), cell)) return (0.0, None); j += 1 }
      // breakpoints per dimension, clipped to the cell
      val cuts: Array[Array[Double]] = Array.tabulate(d) { i =>
        val pts = new Array[Double](2 * m)
        var n = 0
        j = 0
        while (j < m) {
          val x = overlapping(j) * d + i
          if (lo(x) > cell.lo(i) && lo(x) < cell.hi(i)) { pts(n) = lo(x); n += 1 }
          if (hi(x) > cell.lo(i) && hi(x) < cell.hi(i)) { pts(n) = hi(x); n += 1 }
          j += 1
        }
        Array(cell.lo(i)) ++ pts.take(n).distinct.sorted ++ Array(cell.hi(i))
      }
      var total = 0.0
      var rep: Option[Pt] = None
      val at = new Array[Int](d) // the sub-box: cuts(i)(at(i)) until cuts(i)(at(i) + 1)
      var more = true
      while (more) {
        if (!midpointCovered(cuts, at, m)) {
          var i = 0
          while (i < d) {
            flo(dims(i)) = cuts(i)(at(i))
            fhi(dims(i)) = math.nextDown(cuts(i)(at(i) + 1))
            i += 1
          }
          val c = index.countBox(flo, fhi)
          if (c > 0) {
            total += c
            if (rep.isEmpty) rep = Some(SubSpace.project(index.sampleBox(flo, fhi, 1, rng)(0), dims))
          }
        }
        var i = d - 1
        while (i >= 0 && at(i) == cuts(i).length - 2) { at(i) = 0; i -= 1 }
        if (i < 0) more = false else at(i) += 1
      }
      (total, rep)
    }

    /** `Box.intersects`: G-box b and `cell` share an open region. */
    private def meets(b: Int, cell: Box): Boolean = {
      var i = 0
      while (i < d) {
        if (hi(b * d + i) <= cell.lo(i) || cell.hi(i) <= lo(b * d + i)) return false
        i += 1
      }
      true
    }

    /** `Box.covers`: G-box b contains `cell`. */
    private def covers(b: Int, cell: Box): Boolean = {
      var i = 0
      while (i < d) {
        if (cell.lo(i) < lo(b * d + i) || cell.hi(i) > hi(b * d + i)) return false
        i += 1
      }
      true
    }

    /** Whether one of the first `m` overlapping G-boxes contains
      * (`Box.contains`) the midpoint of sub-box `at`.
      */
    private def midpointCovered(cuts: Array[Array[Double]], at: Array[Int], m: Int): Boolean = {
      var i = 0
      while (i < d) { mid(i) = (cuts(i)(at(i)) + cuts(i)(at(i) + 1)) / 2; i += 1 }
      var j = 0
      while (j < m) {
        val b = overlapping(j) * d
        i = 0
        while (i < d && !(mid(i) < lo(b + i) || mid(i) >= hi(b + i))) i += 1
        if (i == d) return true
        j += 1
      }
      false
    }
  }
}
