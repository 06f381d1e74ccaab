package repro.core

import repro.cluster.GammaAlg
import repro.cluster.Weighted.Pt
import repro.join.LocalJoinIndex
import scala.collection.mutable
import scala.util.Random

/** Algorithm 2 — RelClusteringFast: the randomized sampling-based coreset.
  *
  * Two modes sharing the grids of [[GridWalk]] and the heavy-light logic:
  *
  *  - [[run]] (faithful): over the cells of [[GridWalk.cells]], per-cell
  *    SampleRect(M) + CountRect exactly as the pseudocode: a cell is heavy
  *    when the fraction g/M of its samples not already lying in processed
  *    heavy cells B is at least 2*tau; the representative gets weight
  *    (g/M) * n_cell / (1 - eps').
  *
  *  - [[runBatched]]: one shared uniform sample T of q(D) (drawn once via
  *    SampleRect over the whole space) replaces the per-cell samples;
  *    nonempty cells are enumerated data-driven from T, g_cell counts T's
  *    not-yet-assigned points in the cell and the weight is (g/|T|) * n.
  *    Estimates the same quantity |q_u(D) ∩ (cell \ B)| with one relational
  *    sampling pass instead of one per cell (DESIGN.md §2.3).
  */
object RelClusteringFast {

  /** Faithful Algorithm 2. */
  def run(index: LocalJoinIndex, dims: Array[Int], x: Array[Pt],
          alpha: Double, r: Double, k: Int,
          gamma: GammaAlg, conf: CoreConf, rng: Random): ClusterOut = {
    val n = index.n
    require(n > 0, "empty join")
    val grids = GridWalk.grids(gamma.objective, alpha, r, n, conf.cellsPerSide, x)
    val m = conf.perCellSamples

    val b = mutable.ArrayBuffer.empty[Box] // heavy cells, in order
    val corePts = mutable.ArrayBuffer.empty[Pt]
    val coreW = mutable.ArrayBuffer.empty[Double]

    def inB(p: Pt): Boolean = b.exists(_.contains(p))

    for (box <- GridWalk.cells(grids, index, dims)) {
      val (flo, fhi) = SubSpace.lift(box, dims, index.dim)
      val h = index.sampleBox(flo, fhi, m, rng).map(SubSpace.project(_, dims))
      if (h.nonEmpty) {
        val fresh = h.filterNot(inB)
        val g = fresh.length
        if (g.toDouble / m >= conf.heavyFraction) {
          val nCell = index.countBox(flo, fhi)
          corePts += fresh.head
          coreW += (g.toDouble / m) * nCell / (1 - conf.epsPrimeFast)
          b += box
        }
      }
    }

    GridWalk.finish(corePts.toArray, coreW.toArray, k, gamma, rng, rUFactor(conf))
  }

  /** r_u = (1+4eps')/(1-9eps') * v_S(C) (Lemma 3.10 / Alg 2 line 18). */
  private def rUFactor(conf: CoreConf): Double =
    (1 + 4 * conf.epsPrimeFast) / (1 - 9 * conf.epsPrimeFast)

  /** Batched Algorithm 2 over a shared uniform join sample `sample`
    * (full-width tuples) of the join with exact total count `n`.
    */
  def runBatched(sample: Array[Array[Double]], n: Double, dims: Array[Int], x: Array[Pt],
                 alpha: Double, r: Double, k: Int,
                 gamma: GammaAlg, conf: CoreConf, rng: Random): ClusterOut = {
    require(sample.nonEmpty, "empty sample")
    val grids = GridWalk.grids(gamma.objective, alpha, r, n, conf.cellsPerSide, x)

    val pts = sample.map(SubSpace.project(_, dims))
    val mTot = pts.length.toDouble
    val assigned = new Array[Boolean](pts.length)
    var remaining = pts.length

    val corePts = mutable.ArrayBuffer.empty[Pt]
    val coreW = mutable.ArrayBuffer.empty[Double]

    var i = 0
    while (i < x.length && remaining > 0) {
      // group the still-unassigned sample points by their cell in x_i's grid
      val byCell = mutable.LinkedHashMap.empty[CellKey, mutable.ArrayBuffer[Int]]
      var t = 0
      while (t < pts.length) {
        if (!assigned(t)) {
          byCell.getOrElseUpdate(grids(i).cellOf(i, pts(t)), mutable.ArrayBuffer.empty) += t
        }
        t += 1
      }
      byCell.foreach { case (key, idxs) =>
        val box = grids(i).boxOf(key)
        if (SubSpace.condition3(x(i), x, box)) {
          corePts += pts(idxs.head)
          coreW += idxs.length / mTot * n
          idxs.foreach { ix => assigned(ix) = true; remaining -= 1 }
        }
      }
      i += 1
    }
    // Safety net (Lemma 3.1 guarantees none at full |X| coverage): leftover
    // sample points enter individually with weight n/|T| — only tightens C.
    var t = 0
    while (t < pts.length) {
      if (!assigned(t)) { corePts += pts(t); coreW += n / mTot }
      t += 1
    }

    GridWalk.finish(corePts.toArray, coreW.toArray, k, gamma, rng, rUFactor(conf))
  }
}
