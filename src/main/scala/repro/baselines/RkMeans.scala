package repro.baselines

import org.apache.spark.sql.Column
import org.apache.spark.sql.functions._
import repro.cluster.{GammaAlg, Weighted}
import repro.cluster.Weighted.Pt
import repro.join.{AcyclicQuery, LocalJoinIndex, Yannakakis}
import scala.util.Random

/** Curtin et al. [23] — rk-means, the grid-coreset baseline of Table 1.
  *
  * 1. For each of the d dimensions, solve the weighted 1-D k-means on the
  *    exact projection histogram (from a [[LocalJoinIndex]]) — k centers per dim.
  * 2. Every join tuple snaps to the grid cell given by its per-dimension
  *    nearest centers; there are at most k^d nonempty cells (the k^m factor
  *    in Table 1's running time).
  * 3. Cell weights |q(D) ∩ cell| are exact and are computed WITHOUT
  *    materializing the join: each relation is annotated with its attributes'
  *    assignment ids (a Catalyst `when`-chain against the k-1 midpoints) and
  *    a counting-Yannakakis pass groups by the carried ids.
  * 4. The weighted gamma-algorithm runs on the grid points.
  */
object RkMeans {
  /** `totalWeight` must equal |q(D)| — the grid cells partition the join. */
  final case class Result(centers: Array[Pt], gridSize: Int, totalWeight: Double)

  def run(q0: AcyclicQuery, k: Int, gamma: GammaAlg, seed: Long): Result =
    Yannakakis.withReduced(q0)(runReduced(_, k, gamma, seed))

  private def runReduced(q: AcyclicQuery, k: Int, gamma: GammaAlg, seed: Long): Result = {
    val rng = new Random(seed)
    val attrs = q.allAttrs
    val index = LocalJoinIndex.build(q)

    // 1. per-dimension centers, sorted
    val dimCenters: Map[String, Array[Double]] = attrs.map { a =>
      val hist = index.histogram(a)
      val cs = gamma.cluster(hist.map(h => Array(h._1)), hist.map(_._2), k, rng)
      a -> cs.map(_(0)).sorted
    }.toMap

    // assignment id of a 1-D value given sorted centers: #midpoints below it
    def assignCol(a: String): Column = {
      val cs = dimCenters(a)
      if (cs.length == 1) lit(0)
      else {
        val mids = cs.sliding(2).map(p => (p(0) + p(1)) / 2).toSeq
        mids.map(m => when(col(a).cast("double") > lit(m), 1).otherwise(0)).reduce(_ + _)
      }
    }

    // 2-3. annotate relations with carried cell ids; exact counts per cell.
    // Each attribute is annotated in exactly ONE relation (its value is the
    // same in every relation of a join result), keeping carry names unique.
    val owner: Map[String, String] =
      attrs.map(a => a -> q.relations.find(_.attrSet.contains(a)).get.name).toMap
    val annotated = q.withDfs(q.relations.map { r =>
      val mine = attrs.filter(a => owner(a) == r.name)
      r.name -> mine.foldLeft(r.df)((df, a) =>
        df.withColumn(s"${Yannakakis.CarryPrefix}$a", assignCol(a)))
    }.toMap)
    val cellCounts = Yannakakis
      .countsByCarry(annotated.rooted(annotated.relations.head.name))
      .collect()

    // 4. grid points (cross products of per-dim centers) weighted by counts
    val pts = new Array[Pt](cellCounts.length)
    val w = new Array[Double](cellCounts.length)
    val carryCols = attrs.map(a => s"${Yannakakis.CarryPrefix}$a")
    cellCounts.zipWithIndex.foreach { case (row, i) =>
      pts(i) = attrs.zipWithIndex.map { case (a, j) =>
        dimCenters(a)(row.getAs[Number](row.fieldIndex(carryCols(j))).intValue())
      }.toArray
      w(i) = row.getAs[Long](Yannakakis.Cnt).toDouble
    }
    Result(gamma.cluster(pts, w, k, rng), pts.length, w.sum)
  }
}
