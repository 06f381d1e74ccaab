package repro.join

import org.apache.spark.sql.DataFrame

/** A named relation backed by a DataFrame. Attribute identity is by column
  * name: two relations sharing a column name join on it (natural join), as in
  * the paper's conjunctive-query model where every attribute has dom = R.
  */
final case class Relation(name: String, df: DataFrame) {
  def attrs: Seq[String] = df.columns.toSeq
  def attrSet: Set[String] = df.columns.toSet
}

/** A rooted join tree. Children join with the parent on the (nonempty, for
  * connected queries) intersection of their attribute sets.
  */
final case class JoinTree(rel: Relation, children: Seq[JoinTree]) {
  /** All relations of the subtree, pre-order. */
  def relations: Seq[Relation] = rel +: children.flatMap(_.relations)
  /** All attributes appearing anywhere in the subtree. */
  def attrs: Set[String] = children.foldLeft(rel.attrSet)(_ ++ _.attrs)
}

/** An acyclic join query: its relations plus an (undirected) join tree given
  * as parent/child name pairs. Because the running-intersection property is a
  * property of the undirected tree, the query may be re-rooted at any
  * relation.
  */
final case class AcyclicQuery(relations: Seq[Relation], edges: Seq[(String, String)]) {
  require(relations.map(_.name).distinct.size == relations.size, "duplicate relation names")

  private val byName: Map[String, Relation] = relations.map(r => r.name -> r).toMap
  private val adj: Map[String, Seq[String]] = {
    val both = edges.flatMap { case (a, b) => Seq(a -> b, b -> a) }
    both.groupBy(_._1).map { case (k, vs) => k -> vs.map(_._2) }
  }

  /** Global attribute order (sorted for determinism); clustering points are
    * laid out in this order.
    */
  val allAttrs: Seq[String] = relations.flatMap(_.attrs).distinct.sorted

  def relation(name: String): Relation = byName(name)

  /** Root the join tree at `rootName`. */
  def rooted(rootName: String): JoinTree = {
    def build(name: String, from: Option[String]): JoinTree = {
      val kids = adj.getOrElse(name, Nil).filterNot(from.contains)
      JoinTree(byName(name), kids.map(c => build(c, Some(name))))
    }
    require(byName.contains(rootName), s"unknown relation $rootName")
    val t = build(rootName, None)
    require(t.relations.size == relations.size, "join tree is disconnected")
    t
  }

  /** Same query over new DataFrames (e.g. after semi-join reduction). */
  def withDfs(dfs: Map[String, DataFrame]): AcyclicQuery =
    copy(relations = relations.map(r => r.copy(df = dfs.getOrElse(r.name, r.df))))
}

/** GYO ear-removal: decides acyclicity and produces a join tree.
  *
  * A relation R is an ear if the attributes it shares with the *other*
  * remaining relations are all contained in a single remaining relation S
  * (the witness); R is removed and attached under S. An acyclic query reduces
  * to a single relation; a cyclic one gets stuck.
  */
object GYO {
  def joinTree(relations: Seq[Relation]): Option[AcyclicQuery] = {
    var remaining = relations.toList
    var edges = List.empty[(String, String)]
    var progress = true
    while (remaining.size > 1 && progress) {
      progress = false
      val earOpt = remaining.iterator.flatMap { r =>
        val others = remaining.filterNot(_.name == r.name)
        val sharedOut = r.attrSet.intersect(others.flatMap(_.attrs).toSet)
        others.find(s => sharedOut.subsetOf(s.attrSet)).map(w => (r, w))
      }.take(1).toList
      earOpt.foreach { case (ear, witness) =>
        remaining = remaining.filterNot(_.name == ear.name)
        edges ::= (witness.name -> ear.name)
        progress = true
      }
    }
    if (remaining.size == 1) Some(AcyclicQuery(relations, edges)) else None
  }

  def isAcyclic(relations: Seq[Relation]): Boolean = joinTree(relations).isDefined
}
