package repro.join

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Yannakakis-style passes over an acyclic join query, expressed entirely in
  * the DataFrame API (Catalyst plans the semi-joins / aggregations). All but
  * [[materialize]] are the Spark references for [[LocalJoinIndex]] in tests.
  *
  *  - [[fullReduce]]   : classic full reducer — keeps only non-dangling tuples.
  *  - [[countsByCarry]]: |q(D)| grouped by "carried" derived columns (columns
  *                       whose name starts with a marker prefix). Carried
  *                       columns must have globally unique names.
  *  - [[countJoin]]    : |q(D)| without materializing the join.
  *  - [[materialize]]  : the full join (two-step baseline only!).
  */
object Yannakakis {
  val Cnt = "__cnt"
  val CarryPrefix = "cc_"

  private def shared(a: JoinTree, b: JoinTree): Seq[String] =
    a.rel.attrs.filter(c => !c.startsWith(CarryPrefix) && b.rel.attrSet.contains(c))

  /** Semi-join full reducer; returns the query with dangling tuples removed.
    * Two passes (bottom-up then top-down) over an arbitrary rooting.
    */
  def fullReduce(q: AcyclicQuery): AcyclicQuery = {
    val tree = q.rooted(q.relations.head.name)
    val reduced = scala.collection.mutable.Map.empty[String, DataFrame]

    def up(node: JoinTree): DataFrame = {
      var df = node.rel.df
      node.children.foreach { c =>
        val cdf = up(c)
        val s = shared(node, c)
        df =
          if (s.nonEmpty) df.join(cdf.select(s.map(col): _*).distinct(), s, "left_semi")
          else if (cdf.isEmpty) df.where(lit(false))
          else df
      }
      reduced(node.rel.name) = df
      df
    }

    def down(node: JoinTree, parentDf: Option[DataFrame]): Unit = {
      var df = reduced(node.rel.name)
      parentDf.foreach { p =>
        val s = node.rel.attrs.filter(c => !c.startsWith(CarryPrefix) && p.columns.contains(c))
        df =
          if (s.nonEmpty) df.join(p.select(s.map(col): _*).distinct(), s, "left_semi")
          else if (p.isEmpty) df.where(lit(false))
          else df
      }
      reduced(node.rel.name) = df
      node.children.foreach(c => down(c, Some(df)))
    }

    up(tree)
    down(tree, None)
    q.withDfs(reduced.toMap)
  }

  /** |q(D)| in O(N)-style passes (no join materialization): the sum of the
    * [[countsByCarry]] groups, a single group for an uncarried query.
    */
  def countJoin(q: AcyclicQuery): Long =
    countsByCarry(q.rooted(q.relations.head.name))
      .agg(coalesce(sum(Cnt), lit(0L))).head().getLong(0)

  /** Join-result counts grouped by all carried (`cc_`-prefixed) columns.
    * Carried columns flow up the tree inside each group-by, so intermediate
    * sizes stay |distinct keys| x |distinct carried combos| — never |q(D)|.
    * Returns a DataFrame (carried columns..., `__cnt`).
    */
  def countsByCarry(tree: JoinTree): DataFrame = {
    def carryCols(df: DataFrame): Seq[String] = df.columns.filter(_.startsWith(CarryPrefix)).toSeq

    def up(node: JoinTree, parent: Option[JoinTree]): DataFrame = {
      var df = node.rel.df.withColumn(Cnt, lit(1L))
      node.children.zipWithIndex.foreach { case (c, _) =>
        val s = shared(node, c)
        val msg = up(c, Some(node))
        val renamed = msg.withColumnRenamed(Cnt, "__ccnt")
        df = if (s.nonEmpty) df.join(renamed, s) else df.crossJoin(renamed)
        df = df.withColumn(Cnt, col(Cnt) * col("__ccnt")).drop("__ccnt")
      }
      val keys = parent.map(p => shared(node, p)).getOrElse(Nil) ++ carryCols(df)
      if (keys.nonEmpty) df.groupBy(keys.map(col): _*).agg(sum(Cnt).as(Cnt))
      else df.agg(sum(Cnt).as(Cnt))
    }
    up(tree, None)
  }

  /** The materialized join q(D) with columns in `q.allAttrs` order. This is
    * the two-step baseline's data-preparation phase — the thing the paper
    * exists to avoid.
    */
  def materialize(q: AcyclicQuery): DataFrame = {
    val tree = q.rooted(q.relations.head.name)
    def join(node: JoinTree): DataFrame =
      node.children.foldLeft(node.rel.df) { (acc, c) =>
        val s = shared(node, c)
        val cdf = join(c)
        if (s.nonEmpty) acc.join(cdf, s) else acc.crossJoin(cdf)
      }
    join(tree).select(q.allAttrs.map(col): _*)
  }
}
