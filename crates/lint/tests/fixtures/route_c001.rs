//! C001 router fixture: the routed source's delivery loop is a yield
//! point; a look-alike name or the router's other methods are not.

async fn source(env: &mut Env, router: &mut Router) -> Result<(), SparsedistError> {
    router.route_parts(env, done_order).await?;
    router.run(env, done_order).await?;
    route_parts_later(env).await;
    Ok(())
}
