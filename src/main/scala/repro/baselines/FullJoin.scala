package repro.baselines

import org.apache.spark.sql.{Column, DataFrame, Row}
import org.apache.spark.sql.functions._
import repro.cluster.{GammaAlg, Means, Median, Objective, Weighted}
import repro.cluster.Weighted.Pt
import repro.join.{AcyclicQuery, Yannakakis}
import scala.util.Random

/** Exact clustering-cost evaluation over the *full* join result, computed as
  * a Spark aggregation (the join is streamed through Catalyst, grouped and
  * summed — produced but never collected/stored). Used to score every
  * method's centers on equal footing.
  */
object CostEval {
  /** v_S(q(D)) (median) or mu_S(q(D)) (means), exact. */
  def cost(q: AcyclicQuery, centers: Array[Pt], attrs: Seq[String], obj: Objective): Double = {
    val join = Yannakakis.materialize(q)
    costOf(join, centers, attrs, obj)
  }

  /** Same, over an already-materialized join DataFrame. */
  def costOf(join: DataFrame, centers: Array[Pt], attrs: Seq[String], obj: Objective): Double = {
    val distSqs: Seq[Column] = centers.toSeq.map { c =>
      attrs.zipWithIndex
        .map { case (a, i) => (col(a).cast("double") - lit(c(i))) * (col(a).cast("double") - lit(c(i))) }
        .reduce(_ + _)
    }
    val minSq = if (distSqs.size == 1) distSqs.head else least(distSqs: _*)
    val perTuple = obj match {
      case Median => sqrt(minSq)
      case Means  => minSq
    }
    join.agg(coalesce(sum(perTuple), lit(0.0))).head.getDouble(0)
  }
}

/** The two-step baseline the paper exists to beat: materialize q(D) with
  * DataFrame joins, then run the gamma-algorithm on the result. At bench
  * scale the materialized join is clustered via a large uniform subset
  * (capped collect) — collecting 10^7+ tuples to the driver is exactly the
  * blow-up the relational algorithms avoid.
  */
object FullJoin {
  final case class Result(centers: Array[Pt], joinSize: Long, clusteredRows: Int)

  def run(q: AcyclicQuery, k: Int, gamma: GammaAlg, seed: Long,
          collectCap: Int = 2_000_000): Result = {
    // streamed, not cached: a blown-up join may not fit in memory — the
    // baseline pays two scans (count, then collect/sample), both O(|q(D)|)
    val join = Yannakakis.materialize(q)
    val total = join.count()
    val rows =
      if (total <= collectCap) join.collect()
      else join.sample(withReplacement = false, collectCap.toDouble / total, seed).collect()
    val pts = toPts(rows)
    val w = Array.fill(pts.length)(1.0)
    val centers = gamma.cluster(pts, w, k, new Random(seed))
    Result(centers, total, pts.length)
  }

  /** Collected join rows as points, one coordinate per column. */
  def toPts(rows: Array[Row]): Array[Pt] =
    rows.map(r => Array.tabulate(r.length)(i => r.get(i) match {
      case d: Double => d
      case l: Long   => l.toDouble
      case i2: Int   => i2.toDouble
      case x         => x.toString.toDouble
    }))
}
