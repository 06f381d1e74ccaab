package repro.join

/** Algorithm 3, leaf case (lines 2-8): the exact weighted 1-D projection
  * multiset H_u = pi_A(q(D)) with w(p) = |{t in q(D) : pi_A(t) = p}|.
  *
  * A stand-alone entry point that builds a [[LocalJoinIndex]] for one
  * histogram; callers that hold an index call [[LocalJoinIndex.histogram]]
  * on it. Never materializes q(D).
  */
object LeafHistogram {
  /** (value, weight) pairs in ascending value order; weights sum to |q(D)|. */
  def histogram(q: AcyclicQuery, attr: String): Array[(Double, Double)] =
    LocalJoinIndex.build(q).histogram(attr)
}
